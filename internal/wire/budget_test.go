package wire

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"testing"

	"mmprofile/internal/pubsub"
)

// TestRestingSessionBytes is the budget on what the north star multiplies
// by the number of subscribers online: the live heap and goroutine stack a
// push session holds at rest, after it has delivered once (so its queue
// exists and its goroutine has pushed). 2000 sessions over net.Pipe with a
// client that keeps nothing per session but its end of the pipe; the pipe
// itself is in the figure. It read 21.0 KB with a pump parked on handle's
// decode-grown stack beside a json.Decoder, a json.Encoder, a 64-slot
// message slice and a 128-slot channel, 9.9 KB with a pump and a watcher on
// fresh stacks, and reads about 6.6 with the one goroutine parked in Read.
func TestRestingSessionBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory counts as heap")
	}
	const n, budget = 2000, 7.5 * 1024
	b := pubsub.New(pubsub.Options{Threshold: 0.2})
	srv := NewServer(b, func(string, ...any) {})
	defer srv.Close()
	for i := 0; i < n; i++ {
		if _, err := b.SubscribeKeywords(fmt.Sprintf("u%d", i), []string{"cats"}); err != nil {
			t.Fatal(err)
		}
	}
	measure := func() (heap, stack uint64) {
		var m runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.GC() // the second and third let stacks shrink and pools empty
		}
		runtime.ReadMemStats(&m)
		return m.HeapAlloc, m.StackInuse
	}
	heap0, stack0 := measure()

	conns := make([]net.Conn, n)
	r := bufio.NewReader(nil)
	line := func(c net.Conn) {
		r.Reset(c)
		if _, err := r.ReadSlice('\n'); err != nil {
			t.Fatal(err)
		}
	}
	for i := range conns {
		local, remote := net.Pipe()
		defer local.Close()
		srv.ServeConn(remote)
		go fmt.Fprintf(local, `{"op":"session","user":"u%d"}`+"\n", i)
		line(local) // the ack
		conns[i] = local
	}
	if _, delivered := b.Publish(catPage); delivered != n {
		t.Fatalf("delivered to %d of %d sessions", delivered, n)
	}
	for _, c := range conns {
		line(c) // its one frame
	}
	heap1, stack1 := measure()

	heap, stack := float64(heap1-heap0)/n, float64(stack1-stack0)/n
	t.Logf("resting session: %.1f KB = %.1f KB heap + %.1f KB stack", (heap+stack)/1024, heap/1024, stack/1024)
	if heap+stack > budget {
		t.Errorf("a resting session holds %.0f B (heap %.0f + stack %.0f), budget %.0f", heap+stack, heap, stack, budget)
	}
	runtime.KeepAlive(conns)
}

// TestRestingSessionStack: over a socket, a session's goroutine writes its
// frames, under the write bound, within the stack it parked in Read on, so
// delivering grows no stack. One slog attribute built in push's frame is
// enough to double every session's stack, which is most of what an idle
// session costs in RSS.
func TestRestingSessionStack(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector deepens every frame")
	}
	const n = 1000
	_, srv, b := startServerOpts(t, pubsub.Options{Threshold: 0.2})
	stacks := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // frees the stacks of the exited request goroutines
		runtime.ReadMemStats(&m)
		return m.StackInuse
	}
	sessions := make([]*Session, n)
	for i := range sessions {
		user := fmt.Sprintf("u%d", i)
		if _, err := b.SubscribeKeywords(user, []string{"cats"}); err != nil {
			t.Fatal(err)
		}
		sessions[i] = openSession(t, srv, user, 0)
	}
	before := stacks()
	b.Publish(catPage)
	for _, sess := range sessions {
		recvN(t, sess, 1)
	}
	grown := (float64(stacks()) - float64(before)) / n
	t.Logf("stack grown per session by its first frame: %.0f B", grown)
	if grown > 512 {
		t.Errorf("writing a frame grew each session's stack by %.0f B: the write path outgrew the first stack", grown)
	}
}
