package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/faultfs"
	"mmprofile/internal/obs"
	"mmprofile/internal/store"
	"mmprofile/internal/wire"
)

const (
	testPage = "<html><body>cats and kittens and cat toys sleep through the long afternoon</body></html>"
	stateDir = "/state" // on a faultfs.Sim
)

var t0 = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

func mustNew(t *testing.T, cfg Config, fs faultfs.FS) *Server {
	t.Helper()
	s, err := New(cfg, Seams{FS: fs, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dial hands the server one end of a net.Pipe and wraps the other.
func dial(s *Server) *wire.Client {
	local, remote := net.Pipe()
	s.ServeConn(remote)
	return wire.NewClient(local)
}

// serve runs s on a loopback listener and returns its address and a func
// that stops it and checks Serve's return. One answered request proves Serve
// is past start, i.e. the status listener is bound and the loop runs.
func serve(t *testing.T, s *Server) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(lis) }()
	c, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	return lis.Addr().String(), func() {
		s.Stop()
		if err := <-done; !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve returned %v after Stop", err)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// settle waits for the goroutine count to come down to want (an exiting
// goroutine — a closed connection's handler, an earlier test's — is not yet
// gone when what ended it returns) and reports the excess if it never does.
func settle(want int) (excess int) {
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	return max(runtime.NumGoroutine()-want, 0)
}

func counter(s *Server, name string) int64 {
	v, _ := s.reg.Snapshot()[name].(int64)
	return v
}

// journal opens the state directory read-only, as mmstore does, and
// reports the journal.
func journal(t *testing.T, fs faultfs.FS) (store.WALInfo, *store.Store) {
	t.Helper()
	st, err := store.Open(stateDir, store.Options{ReadOnly: true, FS: fs})
	must(t, err)
	t.Cleanup(func() { st.Close() })
	info, err := st.WALInfo()
	must(t, err)
	return info, st
}

// crashed builds a state directory the way the CI smoke's crash leg did: a
// first boot subscribes alice and bob and shuts down clean; a second, with
// -fsync, takes two durable judgments from alice and loses power halfway
// through writing her third. It returns the filesystem after power-on,
// alice's Export as of the last acknowledged judgment, and the journal's
// generation as the crash left it.
func crashed(t *testing.T) (sim *faultfs.Sim, want []byte, gen uint64) {
	t.Helper()
	sim = faultfs.NewSim()
	cfg := Config{StateDir: stateDir, Fsync: true, Threshold: 0.2}

	s := mustNew(t, cfg, sim)
	c := dial(s)
	must(t, c.Subscribe("alice", "", []string{"cats", "kittens"}))
	must(t, c.Subscribe("bob", "", []string{"kittens"}))
	s.Stop()

	s = mustNew(t, cfg, sim)
	c = dial(s)
	doc, delivered, err := c.Publish(testPage)
	if err != nil || delivered != 2 {
		t.Fatalf("publish to the restored pair: %v, delivered %d", err, delivered)
	}
	must(t, c.Feedback("alice", doc, true))
	must(t, c.Feedback("alice", doc, true))
	_, want, err = c.Export("alice")
	must(t, err)
	info, err := s.st.WALInfo()
	must(t, err)
	sim.SetHook(faultfs.CrashAt(sim.Ops() + 1))
	if err := c.Feedback("alice", doc, true); err == nil {
		t.Fatal("a judgment torn mid-append was acknowledged")
	}
	s.Stop() // the machine is dead: nothing it writes lands
	sim.SetHook(nil)
	sim.Reboot()
	return sim, want, info.Gen
}

// TestCrashReboot boots, serves, crashes and reboots a complete server —
// every connection a net.Pipe, the disk a faultfs.Sim, the schedule unrun.
// Both ways of rebooting (eager, and lazy under -max-resident-profiles 1)
// must hold every acknowledged judgment bit for bit, compact nothing at boot
// (the generation unmoved, alice the one dirty user), answer for a stub,
// and leave, after Stop, no dirty user and the generation one higher. These
// are the facts CI's smoke step used to check from the shell against a
// binary.
func TestCrashReboot(t *testing.T) {
	for _, maxResident := range []int{0, 1} {
		sim, want, gen := crashed(t)
		s := mustNew(t, Config{StateDir: stateDir, Fsync: true, Threshold: 0.2, MaxResident: maxResident}, sim)
		info, err := s.st.WALInfo()
		must(t, err)
		if info.Gen != gen || info.DirtyUsers != 1 {
			t.Errorf("max-resident %d: after boot generation %d with %d dirty users; want generation %d, 1 dirty",
				maxResident, info.Gen, info.DirtyUsers, gen)
		}

		c := dial(s)
		if p, err := c.Profile("bob"); err != nil || p.Learner != "MM" || p.Size != 1 {
			t.Errorf("max-resident %d: restored bob answers %+v, %v", maxResident, p, err)
		}
		_, got, err := c.Export("alice")
		must(t, err)
		if !bytes.Equal(got, want) {
			t.Errorf("max-resident %d: alice's Export after the reboot differs from her last acknowledged state", maxResident)
		}
		s.Stop()

		if after, _ := journal(t, sim); after.DirtyUsers != 0 || after.Records != 0 || after.Gen != gen+1 {
			t.Errorf("max-resident %d: after Stop dirty %d, %d records, generation %d; want 0, 0, %d",
				maxResident, after.DirtyUsers, after.Records, after.Gen, gen+1)
		}
	}
}

// playOneUser runs the crash family's script for one id through a complete
// -fsync server on sim — subscribe u, import v (state), feedback u,
// unsubscribe u, re-subscribe u, feedback u, each judged page published
// from a second connection — and stops it. It returns how many operations
// were acknowledged before the first that failed, the exports after each
// of those (states[0] before any), and the exports when the script ended.
// A crash that strikes the first boot leaves nothing acknowledged.
func playOneUser(t *testing.T, sim *faultfs.Sim, state []byte) (acked int, states []map[string][]byte, end map[string][]byte) {
	t.Helper()
	s, err := New(Config{StateDir: stateDir, Fsync: true, Threshold: 0.2}, Seams{FS: sim, Log: io.Discard})
	if err != nil {
		return 0, nil, nil
	}
	defer s.Stop()
	c, pub := dial(s), dial(s)
	judge := func() error {
		doc, _, err := pub.Publish(testPage)
		must(t, err)
		return c.Feedback("u", doc, true)
	}
	states = append(states, exports(t, c))
	failed := false
	for _, op := range []func() error{
		func() error { return c.Subscribe("u", "", []string{"cats", "kittens"}) },
		func() error { return c.Import("v", "MM", state) },
		judge,
		func() error { return c.Unsubscribe("u") },
		func() error { return c.Subscribe("u", "", []string{"toys"}) },
		judge,
	} {
		if err := op(); err != nil {
			failed = true
		} else if !failed {
			acked++
			states = append(states, exports(t, c))
		}
	}
	return acked, states, exports(t, c)
}

// exports is every user of the crash family's script that c can export,
// with the bytes it exports.
func exports(t *testing.T, c *wire.Client) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, user := range []string{"u", "v"} {
		_, state, err := c.Export(user)
		switch {
		case err == nil:
			out[user] = state
		case !strings.Contains(err.Error(), "unknown subscriber"):
			t.Fatalf("export %s: %v", user, err)
		}
	}
	return out
}

// faultFamily runs playOneUser's script once per fault hook(i), for every
// operation index i of a clean run that pick accepts, then powers the
// machine off and reboots twice, eagerly and lazily. No boot may fail (no
// judgment replays before its subscribe), a failed operation applies
// nothing in memory — a failed import leaves no subscriber under its id —
// and each reboot holds every acknowledged operation and the
// unacknowledged one either not at all or whole.
func faultFamily(t *testing.T, pick func(faultfs.OpKind) bool, hook func(i int) faultfs.Hook) {
	ref := mustNew(t, Config{}, nil)
	rc := dial(ref)
	must(t, rc.Subscribe("x", "", []string{"kittens", "toys"}))
	_, state, err := rc.Export("x")
	must(t, err)
	ref.Stop()

	var kinds []faultfs.OpKind
	clean := faultfs.NewSim()
	clean.SetHook(func(op faultfs.Op) faultfs.Fault {
		kinds = append(kinds, op.Kind)
		return faultfs.Fault{}
	})
	all, states, _ := playOneUser(t, clean, state)
	if all != 6 {
		t.Fatalf("%d of 6 operations acknowledged without a fault", all)
	}
	for i := 1; i <= len(kinds); i++ {
		if !pick(kinds[i-1]) {
			continue
		}
		sim := faultfs.NewSim()
		sim.SetHook(hook(i))
		acked, _, end := playOneUser(t, sim, state)
		if end != nil && !reflect.DeepEqual(end, states[acked]) {
			t.Errorf("fault at op %d (%s): a failed operation changed the live server (%d acknowledged)", i, kinds[i-1], acked)
		}
		sim.SetHook(nil)
		sim.Reboot()
		for _, maxResident := range []int{0, 1} {
			s, err := New(Config{StateDir: stateDir, Fsync: true, MaxResident: maxResident}, Seams{FS: sim, Log: io.Discard})
			if err != nil {
				t.Fatalf("fault at op %d (%s) of %d, reboot (max-resident %d): %v", i, kinds[i-1], len(kinds), maxResident, err)
			}
			got := exports(t, dial(s))
			s.Stop()
			if !reflect.DeepEqual(got, states[acked]) && (acked == all || !reflect.DeepEqual(got, states[acked+1])) {
				t.Errorf("fault at op %d (%s), reboot (max-resident %d): the state after %d acknowledged operations is lost", i, kinds[i-1], maxResident, acked)
			}
		}
	}
}

// TestCrashFamilyOneUser crashes playOneUser's script at every syscall
// index, its first boot and final checkpoint included (faultFamily).
func TestCrashFamilyOneUser(t *testing.T) {
	faultFamily(t, func(faultfs.OpKind) bool { return true }, faultfs.CrashAt)
}

// TestFailureFamilyOneUser fails, without crashing, each write and each
// fsync of playOneUser's script in turn (faultFamily): the machine keeps
// running, the store refuses what the failure left unknowable, and the
// power goes off only once the script has ended.
func TestFailureFamilyOneUser(t *testing.T) {
	faultFamily(t, func(k faultfs.OpKind) bool { return k == faultfs.OpWrite || k == faultfs.OpSync },
		func(i int) faultfs.Hook { return faultfs.ErrAt(i, faultfs.ErrInjected, 0) })
}

// importCrashed imports state as v into an -fsync server on a fresh
// faultfs.Sim and loses power right after the acknowledgement. It returns
// the filesystem after power-on, v's Export before the crash, and the
// state of v's subscribe record as the journal holds it.
func importCrashed(t *testing.T, state []byte) (sim *faultfs.Sim, want, journaled []byte) {
	t.Helper()
	sim = faultfs.NewSim()
	s := mustNew(t, Config{StateDir: stateDir, Fsync: true, Threshold: 0.2}, sim)
	c := dial(s)
	must(t, c.Import("v", "MM", state))
	_, want, err := c.Export("v")
	must(t, err)
	sim.SetHook(faultfs.CrashAt(sim.Ops() + 1))
	s.Stop() // its checkpoint's first write is the crash: the WAL stands
	sim.SetHook(nil)
	sim.Reboot()

	_, st := journal(t, sim)
	_, events, err := st.Load()
	must(t, err)
	if len(events) != 1 || events[0].Type != store.EventSubscribe || events[0].User != "v" {
		t.Fatalf("the journal holds %+v, want v's subscribe alone", events)
	}
	return sim, want, events[0].State
}

// TestImportJournalsRequestBytes: a durable import's subscribe record
// holds the bytes the request carried, byte for byte — for a trained
// profile our codec wrote, the very record a re-encoding of the decoded
// profile makes — and a crash and reboot, eager or lazy, give back the
// profile the import made.
func TestImportJournalsRequestBytes(t *testing.T) {
	ref := mustNew(t, Config{Threshold: 0.2}, nil)
	rc := dial(ref)
	must(t, rc.Subscribe("x", "", []string{"cats", "kittens"}))
	for range 3 {
		doc, _, err := rc.Publish(testPage)
		must(t, err)
		must(t, rc.Feedback("x", doc, true))
	}
	_, state, err := rc.Export("x")
	must(t, err)
	ref.Stop()
	decoded, err := core.NewNamed("MM", state)
	must(t, err)
	if decoded.Counts().Incorporated == 0 {
		t.Fatal("the profile learned nothing from its judgments")
	}
	reencoded, err := decoded.MarshalBinary()
	must(t, err)

	for _, maxResident := range []int{0, 1} {
		sim, want, journaled := importCrashed(t, state)
		if !bytes.Equal(journaled, state) {
			t.Error("the subscribe record's state is not the bytes the import carried")
		}
		if !bytes.Equal(journaled, reencoded) {
			t.Error("the subscribe record's state is not the decoded profile's MarshalBinary")
		}
		s := mustNew(t, Config{StateDir: stateDir, Fsync: true, MaxResident: maxResident}, sim)
		_, got, err := dial(s).Export("v")
		must(t, err)
		s.Stop()
		if !bytes.Equal(got, want) {
			t.Errorf("max-resident %d: v's Export after the reboot differs from before the crash", maxResident)
		}
	}
}

// TestStopUnderLiveFeedback: a client keeps sending durable judgments while
// Stop runs, until its connection dies. Stop closes connections before its
// checkpoint, so the state directory it leaves has no WAL tail and holds
// every judgment that was acknowledged (and at most the one whose
// acknowledgement the closing connection swallowed).
func TestStopUnderLiveFeedback(t *testing.T) {
	sim := faultfs.NewSim()
	s := mustNew(t, Config{StateDir: stateDir, Fsync: true, Threshold: 0.2}, sim)
	c := dial(s)
	must(t, c.Subscribe("alice", "", []string{"cats", "kittens"}))
	doc, _, err := c.Publish(testPage)
	must(t, err)

	warm := make(chan struct{})
	acked := make(chan int)
	go func() {
		n := 0
		for c.Feedback("alice", doc, true) == nil {
			if n++; n == 3 {
				close(warm)
			}
		}
		acked <- n
	}()
	<-warm
	s.Stop()
	n := <-acked

	info, st := journal(t, sim)
	if info.DirtyUsers != 0 || info.Records != 0 {
		t.Errorf("clean shutdown left %d dirty users, %d WAL records", info.DirtyUsers, info.Records)
	}
	restored, err := st.RestoreAll()
	must(t, err)
	got, err := restored["alice"].MarshalBinary()
	must(t, err)

	// The same judgments through a server with no disk.
	ref := mustNew(t, Config{Threshold: 0.2}, nil)
	defer ref.Stop()
	rc := dial(ref)
	must(t, rc.Subscribe("alice", "", []string{"cats", "kittens"}))
	rdoc, _, err := rc.Publish(testPage)
	must(t, err)
	for i := 0; i < n; i++ {
		must(t, rc.Feedback("alice", rdoc, true))
	}
	_, wantN, err := rc.Export("alice")
	must(t, err)
	must(t, rc.Feedback("alice", rdoc, true))
	_, wantN1, err := rc.Export("alice")
	must(t, err)
	if bytes.Equal(wantN, wantN1) {
		t.Fatal("one more judgment does not change the Export; the test cannot tell n from n+1")
	}
	if !bytes.Equal(got, wantN) && !bytes.Equal(got, wantN1) {
		t.Errorf("restored profile holds neither the %d acknowledged judgments nor one more", n)
	}
}

// TestStatusListener: Stop shuts the -http listener down, so a second server
// in the same process can bind the same address, and a connection that never
// sends its headers is closed by the server instead of held for good.
func TestStatusListener(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	must(t, err)
	httpAddr := probe.Addr().String()
	probe.Close()

	get := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for boot := 1; boot <= 2; boot++ {
		s := mustNew(t, Config{HTTPAddr: httpAddr}, nil)
		s.headerTimeout = 50 * time.Millisecond
		_, stop := serve(t, s)
		resp, err := get.Get("http://" + httpAddr + "/readyz")
		if err != nil {
			stop()
			t.Fatalf("boot %d: %v", boot, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("boot %d: /readyz %d", boot, resp.StatusCode)
		}
		if boot == 1 {
			mute, err := net.Dial("tcp", httpAddr)
			must(t, err)
			must(t, mute.SetReadDeadline(time.Now().Add(10*time.Second)))
			if _, err := mute.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("header-less connection: read %v, want EOF from the server's timeout", err)
			}
			mute.Close()
		}
		stop()
	}
}

// TestNewFailure: New refuses a bad configuration before it touches the
// disk, and a failure after the store is open (here, restore meeting a
// learner nobody registered, or a baseline learner the server no longer
// serves) closes it again — no open journal, no goroutine left behind, not
// a byte of the directory changed. A lazy boot of the same
// directory serves every other user and answers the baseline user's
// profile with an error.
func TestNewFailure(t *testing.T) {
	sim := faultfs.NewSim()
	for _, cfg := range []Config{
		{MaxResident: 1},
		{StateDir: stateDir, LogLevel: "verbose"},
		{StateDir: stateDir, LogFormat: "xml"},
	} {
		if _, err := New(cfg, Seams{FS: sim}); err == nil {
			t.Errorf("New(%+v) succeeded", cfg)
		}
	}
	if sim.Ops() != 0 {
		t.Errorf("a refused configuration still cost %d filesystem operations", sim.Ops())
	}

	st, err := store.Open(stateDir, store.Options{FS: sim})
	must(t, err)
	must(t, st.AppendSubscribe("mallory", "no-such-learner", nil))
	must(t, st.Close())
	before := runtime.NumGoroutine()
	if _, err := New(Config{StateDir: stateDir}, Seams{FS: sim, Log: io.Discard}); err == nil {
		t.Fatal("New restored a learner nobody registered")
	}
	if n := settle(before); n != 0 {
		t.Errorf("failed New left %d goroutine(s) behind", n)
	}
	st, err = store.Open(stateDir, store.Options{FS: sim})
	must(t, err)
	st.Close()

	// A directory an older release wrote, holding an RI subscriber.
	sim = faultfs.NewSim()
	st, err = store.Open(stateDir, store.Options{FS: sim})
	must(t, err)
	must(t, st.AppendSubscribe("alice", "MM", nil))
	must(t, st.AppendSubscribe("rocco", "RI", nil))
	must(t, st.AppendSubscribe("bob", "MMND", nil))
	must(t, st.Close())
	files := dirBytes(t, sim)
	before = runtime.NumGoroutine()
	_, err = New(Config{StateDir: stateDir}, Seams{FS: sim, Log: io.Discard})
	if err == nil || !strings.Contains(err.Error(), `"rocco"`) || !strings.Contains(err.Error(), `"RI"`) {
		t.Errorf("eager boot over an RI subscriber = %v, want an error naming rocco and RI", err)
	}
	if n := settle(before); n != 0 {
		t.Errorf("failed New left %d goroutine(s) behind", n)
	}
	if !reflect.DeepEqual(dirBytes(t, sim), files) {
		t.Error("the failed boot changed the state directory")
	}
	s := mustNew(t, Config{StateDir: stateDir, MaxResident: 1}, sim)
	defer s.Stop()
	c := dial(s)
	for user, learner := range map[string]string{"alice": "MM", "bob": "MMND"} {
		if p, err := c.Profile(user); err != nil || p.Learner != learner {
			t.Errorf("lazy boot: %s answers %+v, %v; want a %s profile", user, p, err, learner)
		}
	}
	if p, err := c.Profile("rocco"); err == nil || !strings.Contains(err.Error(), `"RI"`) {
		t.Errorf("lazy boot: rocco answers %+v, %v; want an error naming RI", p, err)
	}
}

// TestUnreachableProfileIsAnError: a stub whose segment record has one bit
// flipped cannot hydrate, and `profile` says so, as export does, instead of
// answering an empty description.
func TestUnreachableProfileIsAnError(t *testing.T) {
	sim := faultfs.NewSim()
	s := mustNew(t, Config{StateDir: stateDir}, sim)
	c := dial(s)
	must(t, c.Subscribe("alice", "", []string{"cats"}))
	must(t, c.Subscribe("bob", "", []string{"kittens"}))
	s.Stop() // the shutdown checkpoint writes both to the segment, alice first

	for name, data := range dirBytes(t, sim) {
		if strings.HasPrefix(name, "seg-") {
			data[8+binary.LittleEndian.Uint32(data)-1] ^= 1 // the last byte of alice's record
			f, err := sim.OpenFile(filepath.Join(stateDir, name), os.O_WRONLY|os.O_TRUNC, 0o644)
			must(t, err)
			_, err = f.Write(data)
			must(t, err)
			must(t, f.Sync())
			must(t, f.Close())
		}
	}
	s = mustNew(t, Config{StateDir: stateDir, MaxResident: 1}, sim)
	defer s.Stop()
	c = dial(s)
	if p, err := c.Profile("bob"); err != nil || p.Size != 1 {
		t.Errorf("bob answers %+v, %v", p, err)
	}
	if p, err := c.Profile("alice"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("alice's damaged record answers %+v, %v; want a checksum error", p, err)
	}
	if _, _, err := c.Export("alice"); err == nil {
		t.Error("alice's damaged record exports")
	}
}

// TestNewRefusesLanedDirectory: a state directory an older release wrote
// with four WAL lanes fails New with an error naming the layout, and the
// failure performs no filesystem mutation, changes no byte of the directory
// and leaves no goroutine behind, as TestNewFailure's RI directory does.
func TestNewRefusesLanedDirectory(t *testing.T) {
	sim := faultfs.NewSim()
	must(t, sim.MkdirAll(stateDir, 0o755))
	put := func(name string, payload []byte) {
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		f, err := sim.OpenFile(filepath.Join(stateDir, name), os.O_WRONLY|os.O_CREATE, 0o644)
		must(t, err)
		_, err = f.Write(append(frame, payload...))
		must(t, err)
		must(t, f.Sync())
		must(t, f.Close())
	}
	// Manifest version 2, epoch 3, four lanes at generation 0 (no index);
	// each lane's WAL subscribes one user.
	put("MANIFEST", []byte{'M', 'M', 'L', 'N', 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0})
	for lane := 0; lane < 4; lane++ {
		sub := append([]byte{1, 6}, fmt.Sprintf("user-%d", lane)...)
		put(fmt.Sprintf("wal-%03d-00000000.log", lane), append(sub, 2, 'M', 'M', 0))
	}
	must(t, sim.SyncDir(stateDir))
	files, ops := dirBytes(t, sim), sim.Ops()
	before := runtime.NumGoroutine()
	_, err := New(Config{StateDir: stateDir}, Seams{FS: sim, Log: io.Discard})
	if err == nil || !strings.Contains(err.Error(), "4 WAL lanes") {
		t.Errorf("New over a 4-lane directory = %v, want an error naming its 4 WAL lanes", err)
	}
	if n := settle(before); n != 0 {
		t.Errorf("failed New left %d goroutine(s) behind", n)
	}
	if n := sim.Ops() - ops; n != 0 || !reflect.DeepEqual(dirBytes(t, sim), files) {
		t.Errorf("the refused boot made %d filesystem mutation(s) or changed the state directory", n)
	}
}

// dirBytes reads every file of the state directory.
func dirBytes(t *testing.T, sim *faultfs.Sim) map[string][]byte {
	t.Helper()
	entries, err := sim.ReadDir(stateDir)
	must(t, err)
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := sim.ReadFile(filepath.Join(stateDir, e.Name()))
		must(t, err)
		out[e.Name()] = data
	}
	return out
}

// TestOneGoroutine: New starts nothing, a resting server runs one periodic
// goroutine (the parent ran three: heartbeat, sampler, checkpoint ticker),
// and Stop returns only once it, an in-flight periodic checkpoint and every
// connection handler are gone.
func TestOneGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := mustNew(t, Config{StateDir: stateDir, Checkpoint: time.Minute}, faultfs.NewSim())
	if n := settle(before); n != 0 {
		t.Errorf("New started %d goroutine(s)", n)
	}
	_, stop := serve(t, s)
	// Ours: the one calling Serve. The server's: the tick loop.
	if n := settle(before + 2); n != 0 {
		t.Errorf("a resting server holds %d goroutine(s) beyond its tick loop", n)
	}
	c := dial(s)
	must(t, c.Subscribe("alice", "", []string{"cats"}))
	s.nextCheckpoint = time.Time{}.Add(1) // due at the loop's next tick, which Stop may or may not let happen
	stop()
	if n := settle(before); n != 0 {
		t.Errorf("Stop left %d goroutine(s) behind", n)
	}
	if _, err := c.Stats(); err == nil {
		t.Error("a connection outlived Stop")
	}
}

// TestTickCheckpoint: the -checkpoint interval is counted in tick's own
// time, a due checkpoint runs off the loop, and one in flight is not joined
// by a second.
func TestTickCheckpoint(t *testing.T) {
	sim := faultfs.NewSim()
	s := mustNew(t, Config{StateDir: stateDir, Checkpoint: time.Minute}, sim)
	defer s.Stop()
	must(t, dial(s).Subscribe("alice", "", []string{"cats"}))
	s.tick(t0)
	s.tick(t0.Add(59 * time.Second))
	s.scheduled.Wait()
	if n := counter(s, "mm_store_checkpoints_total"); n != 0 {
		t.Fatalf("%d checkpoint(s) before the interval had passed", n)
	}
	s.tick(t0.Add(60 * time.Second))
	s.scheduled.Wait()
	if n := counter(s, "mm_store_checkpoints_total"); n != 1 {
		t.Fatalf("%d checkpoints after one interval, want 1", n)
	}
	s.checkpointing.Store(true) // as if that one were still rewriting
	s.tick(t0.Add(120 * time.Second))
	s.scheduled.Wait()
	if n := counter(s, "mm_store_checkpoints_total"); n != 1 {
		t.Errorf("a second checkpoint started beside one in flight (%d)", n)
	}
	s.checkpointing.Store(false)
}

// TestTickMatchSLO: a tick that finds -match-slo breached over both burn
// windows writes one match_slo bundle; the cooldown, counted in tick's own
// time, keeps the following breaching ticks from writing another and then
// lets one through.
func TestTickMatchSLO(t *testing.T) {
	dumps := t.TempDir()
	s := mustNew(t, Config{Threshold: 0.2, MatchSLO: time.Nanosecond, DumpDir: dumps}, nil)
	defer s.Stop()
	c := dial(s)
	must(t, c.Subscribe("alice", "", []string{"cats"}))
	for _, step := range []struct {
		at      time.Duration
		bundles int
	}{{0, 0}, {time.Second, 1}, {2 * time.Second, 1}, {sloCooldown, 1}, {sloCooldown + time.Second, 2}} {
		_, _, err := c.Publish(testPage) // every match is slower than 1ns
		must(t, err)
		s.tick(t0.Add(step.at))
		names, err := filepath.Glob(filepath.Join(dumps, "*match_slo*"))
		must(t, err)
		if len(names) != step.bundles {
			t.Fatalf("after the tick at +%v: %d match_slo bundles, want %d", step.at, len(names), step.bundles)
		}
	}
}

// TestReadiness walks /readyz through each cause it answers for, one per
// step, on a server whose schedule is tick(now) and whose disk is a
// faultfs.Sim: starting, ready, a stale publish-path beat, a store poisoned
// by a failed group fsync, and the drain, which /healthz sits out. Two
// steps hold two causes at once, to pin which one the status names.
func TestReadiness(t *testing.T) {
	sim := faultfs.NewSim()
	s := mustNew(t, Config{StateDir: stateDir, Fsync: true, Threshold: 0.2}, sim)
	defer s.Stop()
	h := s.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	step := func(name string, code int, status string) obs.HealthSnapshot {
		t.Helper()
		rec := get("/readyz")
		var snap obs.HealthSnapshot
		must(t, json.Unmarshal(rec.Body.Bytes(), &snap))
		if rec.Code != code || snap.Status != status {
			t.Fatalf("%s: /readyz %d %+v, want %d %s", name, rec.Code, snap, code, status)
		}
		for _, c := range []string{"publish_path", "server", "store_wal"} {
			if _, ok := snap.Components[c]; !ok || len(snap.Components) != 3 {
				t.Errorf("%s: components %v, want publish_path, server, store_wal", name, snap.Components)
			}
		}
		return snap
	}

	if c := step("before Serve", 503, "not_ready").Components["server"]; c.Status != "not_ready" || c.Reason != "starting" {
		t.Errorf("before Serve: server = %+v", c)
	}

	s.tick(time.Now())
	s.serving.Store(true) // what Serve's start does after its first tick
	step("after a tick", 200, "ready")

	s.tick(time.Now().Add(-2 * heartbeatMaxAge))
	c := step("after a stale tick", 200, "degraded").Components["publish_path"]
	if c.Status != "degraded" || c.LastBeatAgoMS < (2*heartbeatMaxAge).Milliseconds() || !strings.Contains(c.Reason, "heartbeat stale") {
		t.Errorf("after a stale tick: publish_path = %+v", c)
	}

	s.tick(time.Now())
	sim.SetHook(func(op faultfs.Op) faultfs.Fault {
		if op.Kind == faultfs.OpSync {
			return faultfs.Fault{Err: faultfs.ErrInjected}
		}
		return faultfs.Fault{}
	})
	if err := dial(s).Subscribe("alice", "", []string{"cats"}); err == nil {
		t.Fatal("a subscribe whose fsync failed was acknowledged")
	}
	snap := step("after a failed fsync", 503, "not_ready")
	if c := snap.Components["store_wal"]; c.Status != "not_ready" || !strings.Contains(c.Reason, faultfs.ErrInjected.Error()) {
		t.Errorf("after a failed fsync: store_wal = %+v", c)
	}
	if c := snap.Components["publish_path"]; c.Status != "ready" {
		t.Errorf("after a failed fsync: publish_path = %+v, want ready (one cause per step)", c)
	}
	s.tick(time.Now().Add(-2 * heartbeatMaxAge))
	step("a failed store and a stale tick", 503, "not_ready") // not_ready outranks degraded

	s.Stop()
	// Draining outranks the rest, which each component still reports.
	if snap := step("after Stop", 503, "draining"); !snap.Draining || snap.Components["store_wal"].Status != "not_ready" {
		t.Errorf("after Stop: %+v, want draining over a failed store_wal", snap)
	}
	if rec := get("/healthz"); rec.Code != 200 {
		t.Errorf("after Stop: /healthz %d, want 200", rec.Code)
	}
}
