// Command mmclient talks to an mmserver: subscribe with an adaptive
// profile, publish pages, stream deliveries, send relevance feedback, and
// inspect profiles.
//
// Usage:
//
//	mmclient [-addr host:7070] subscribe -user alice [-learner MM|MMND] [-keywords "cats,jazz"]
//	mmclient publish -file page.html        (or -text "...")
//	mmclient listen -user alice [-batch 64] (server-push session; streams until closed)
//	mmclient feedback -user alice -doc 12 -relevant=true
//	mmclient profile -user alice
//	mmclient fetch -doc 12                  (server must run -retain-content)
//	mmclient export -user alice -out alice.profile
//	mmclient import -user alice -in alice.profile
//	mmclient stats                          (wire-protocol counters)
//	mmclient stats -http localhost:8080     (full /statsz + /metrics dump)
//	mmclient trace -http localhost:8080 [-slow] [-n 10] [-id TRACE]
//	mmclient explain -http localhost:8080 -user alice [-doc 12]
//	mmclient top -http localhost:8080 [-k 10] [-dim subscriber_drops] [-watch 2s]
//	mmclient health -http localhost:8080    (liveness + per-component readiness)
//	mmclient unsubscribe -user alice
package main

import (
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/obs"
	"mmprofile/internal/trace"
	"mmprofile/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "mmserver address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cmd, rest := args[0], args[1:]

	if cmd == "stats" {
		// stats has an HTTP mode that reads the status listener rather
		// than the wire protocol, so handle it before dialing.
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		httpAddr := fs.String("http", "", "status-listener address (uses /statsz + /metrics instead of the wire protocol)")
		prom := fs.Bool("prom", false, "with -http: also dump the raw Prometheus exposition")
		parse(fs, rest)
		if *httpAddr != "" {
			check(httpStats(*httpAddr, *prom))
			return
		}
	}

	if cmd == "trace" {
		// trace is HTTP-only: it reads the server's /tracez rings.
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		httpAddr := fs.String("http", "", "status-listener address (required)")
		slow := fs.Bool("slow", false, "show the slow-trace ring instead of the recent ring")
		n := fs.Int("n", 10, "traces to list (0 = all)")
		id := fs.String("id", "", "print one trace's span tree by id")
		parse(fs, rest)
		if *httpAddr == "" {
			fail(fmt.Errorf("trace needs -http (the mmserver -http address)"))
		}
		check(httpTrace(*httpAddr, *slow, *n, *id))
		return
	}

	if cmd == "top" {
		// top is HTTP-only: it reads the server's /topz hot-key sketches.
		fs := flag.NewFlagSet("top", flag.ExitOnError)
		httpAddr := fs.String("http", "", "status-listener address (required)")
		k := fs.Int("k", 10, "entries per dimension")
		dim := fs.String("dim", "", "show only this dimension (e.g. subscriber_drops)")
		watch := fs.Duration("watch", 0, "refresh every interval until interrupted (0 = one shot)")
		parse(fs, rest)
		if *httpAddr == "" {
			fail(fmt.Errorf("top needs -http (the mmserver -http address)"))
		}
		for {
			if *watch > 0 {
				fmt.Print("\033[H\033[2J") // clear and home, like top(1)
			}
			check(httpTop(*httpAddr, *k, *dim))
			if *watch <= 0 {
				return
			}
			time.Sleep(*watch)
		}
	}

	if cmd == "health" {
		// health is HTTP-only: it reads /healthz and /readyz.
		fs := flag.NewFlagSet("health", flag.ExitOnError)
		httpAddr := fs.String("http", "", "status-listener address (required)")
		parse(fs, rest)
		if *httpAddr == "" {
			fail(fmt.Errorf("health needs -http (the mmserver -http address)"))
		}
		check(httpHealth(*httpAddr))
		return
	}

	if cmd == "explain" {
		// explain is HTTP-only: it reads the server's /explainz endpoint.
		fs := flag.NewFlagSet("explain", flag.ExitOnError)
		httpAddr := fs.String("http", "", "status-listener address (required)")
		user := fs.String("user", "", "subscriber id")
		doc := fs.Int64("doc", -1, "also explain this retained document's score")
		parse(fs, rest)
		if *httpAddr == "" || *user == "" {
			fail(fmt.Errorf("explain needs -http and -user"))
		}
		check(httpExplain(*httpAddr, *user, *doc))
		return
	}

	c, err := wire.Dial(*addr)
	if err != nil {
		fail(err)
	}
	defer c.Close()

	switch cmd {
	case "subscribe":
		fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		learner := fs.String("learner", "", "MM or MMND (default MM)")
		keywords := fs.String("keywords", "", "comma-separated seed keywords (MM only)")
		parse(fs, rest)
		var kw []string
		if *keywords != "" {
			for _, k := range strings.Split(*keywords, ",") {
				kw = append(kw, strings.TrimSpace(k))
			}
		}
		check(c.Subscribe(*user, *learner, kw))
		fmt.Printf("subscribed %s\n", *user)

	case "unsubscribe":
		fs := flag.NewFlagSet("unsubscribe", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		parse(fs, rest)
		check(c.Unsubscribe(*user))
		fmt.Printf("unsubscribed %s\n", *user)

	case "publish":
		fs := flag.NewFlagSet("publish", flag.ExitOnError)
		file := fs.String("file", "", "HTML/text file to publish")
		textArg := fs.String("text", "", "literal content to publish")
		parse(fs, rest)
		content := *textArg
		if *file != "" {
			raw, err := os.ReadFile(*file)
			if err != nil {
				fail(err)
			}
			content = string(raw)
		}
		if content == "" {
			fail(fmt.Errorf("publish needs -file or -text"))
		}
		doc, delivered, traceID, err := c.PublishTrace(content, "")
		check(err)
		fmt.Printf("doc %d delivered to %d subscriber(s)\n", doc, delivered)
		if traceID != "" {
			fmt.Printf("trace %s (mmclient trace -http ... -id %s)\n", traceID, traceID)
		}

	case "listen":
		// listen holds the connection open in server-push session mode and
		// prints deliveries as the server pushes them, queued ones first;
		// sequence gaps (deliveries lost to queue overflow) are reported as
		// they are observed.
		fs := flag.NewFlagSet("listen", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		batch := fs.Int("batch", 0, "max deliveries coalesced per pushed frame (0 = server default)")
		parse(fs, rest)
		sess, err := c.Session(*user, *batch)
		check(err)
		fmt.Printf("listening as %s (next seq %d, %d dropped so far; ctrl-c to stop)\n",
			*user, sess.NextSeq(), sess.Dropped())
		for {
			frame, err := sess.Recv()
			if err != nil {
				fail(err)
			}
			for _, d := range frame.Deliveries {
				fmt.Printf("doc %d  score %.4f  seq %d\n", d.Doc, d.Score, d.Seq)
			}
			if gaps := sess.Gaps(); gaps > 0 {
				fmt.Printf("  (%d delivery(ies) lost to queue overflow so far; server reports %d dropped)\n",
					gaps, frame.Dropped)
			}
			if frame.Closed {
				fmt.Println("subscriber closed")
				return
			}
		}

	case "feedback":
		fs := flag.NewFlagSet("feedback", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		doc := fs.Int64("doc", -1, "document id")
		relevant := fs.Bool("relevant", true, "judgment")
		parse(fs, rest)
		traceID, err := c.FeedbackTrace(*user, *doc, *relevant, "")
		check(err)
		fmt.Printf("feedback recorded for doc %d\n", *doc)
		if traceID != "" {
			fmt.Printf("trace %s\n", traceID)
		}

	case "profile":
		fs := flag.NewFlagSet("profile", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		parse(fs, rest)
		p, err := c.Profile(*user)
		check(err)
		fmt.Printf("learner %s, %d vector(s)\n", p.Learner, p.Size)
		for i, terms := range p.Vectors {
			fmt.Printf("  #%d: %s\n", i+1, strings.Join(terms, " "))
		}

	case "fetch":
		fs := flag.NewFlagSet("fetch", flag.ExitOnError)
		doc := fs.Int64("doc", -1, "document id")
		parse(fs, rest)
		content, err := c.Fetch(*doc)
		check(err)
		fmt.Println(content)

	case "export":
		fs := flag.NewFlagSet("export", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		out := fs.String("out", "", "file to write the profile to (default stdout as base64)")
		parse(fs, rest)
		learner, state, err := c.Export(*user)
		check(err)
		if *out == "" {
			fmt.Printf("%s %s\n", learner, base64.StdEncoding.EncodeToString(state))
			return
		}
		blob := append([]byte(learner+"\n"), state...)
		check(os.WriteFile(*out, blob, 0o644))
		fmt.Printf("exported %s profile of %s (%d bytes) to %s\n", learner, *user, len(state), *out)

	case "import":
		fs := flag.NewFlagSet("import", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		in := fs.String("in", "", "file written by export")
		parse(fs, rest)
		raw, err := os.ReadFile(*in)
		check(err)
		nl := strings.IndexByte(string(raw), '\n')
		if nl < 0 {
			fail(fmt.Errorf("malformed profile file %s", *in))
		}
		check(c.Import(*user, string(raw[:nl]), raw[nl+1:]))
		fmt.Printf("imported %s as %s\n", *in, *user)

	case "stats":
		st, err := c.Stats()
		check(err)
		fmt.Printf("published   %d\n", st.Published)
		fmt.Printf("deliveries  %d (dropped %d)\n", st.Deliveries, st.Dropped)
		fmt.Printf("feedbacks   %d\n", st.Feedbacks)
		fmt.Printf("subscribers %d\n", st.Subscribers)
		fmt.Printf("index       %d vectors (%d distinct) over %d terms\n", st.IndexVectors, st.IndexDistinct, st.IndexTerms)

	default:
		usage()
	}
}

// httpStats fetches /statsz from a status listener and pretty-prints it:
// scalars as aligned sorted key/value lines, histogram snapshots as
// count/p50/p95/p99, top-k dimensions as total and tracked/capacity, then the
// share of vectors reindexing kept. With prom, the raw /metrics exposition
// follows.
func httpStats(addr string, prom bool) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	body, err := httpGet(addr + "/statsz")
	if err != nil {
		return err
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	metricsObj, _ := stats["metrics"].(map[string]any)
	delete(stats, "metrics")
	printKV(stats, "")
	if len(metricsObj) > 0 {
		fmt.Println("\nmetrics:")
		printKV(metricsObj, "  ")
	}
	// What reindexing has done so far: near 1 on an MM population (a step
	// moves one vector of several), near 0 when something copies vectors on
	// their way to the index.
	kept, _ := metricsObj["mm_index_vectors_kept_total"].(float64)
	restaged, _ := metricsObj["mm_index_vectors_restaged_total"].(float64)
	if kept+restaged > 0 {
		fmt.Printf("\nreindex: %s vectors kept, %s restaged (kept share %.2f)\n",
			num(kept), num(restaged), kept/(kept+restaged))
	}
	if prom {
		raw, err := httpGet(addr + "/metrics")
		if err != nil {
			return err
		}
		fmt.Println()
		os.Stdout.Write(raw)
	}
	return nil
}

// httpTrace reads /tracez and renders traces: one summary line each, or,
// with id, the full span tree (children indented under parents, attributes
// inline) — the drill-down for "why was this one request slow?".
func httpTrace(addr string, slow bool, n int, id string) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if id != "" {
		body, err := httpGet(addr + "/tracez?trace=" + id)
		if err != nil {
			return err
		}
		var ts trace.TraceSnapshot
		if err := json.Unmarshal(body, &ts); err != nil {
			return fmt.Errorf("tracez: %w", err)
		}
		printTrace(ts)
		return nil
	}
	body, err := httpGet(addr + "/tracez")
	if err != nil {
		return err
	}
	var out struct {
		Enabled  bool           `json:"enabled"`
		Snapshot trace.Snapshot `json:"snapshot"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("tracez: %w", err)
	}
	if !out.Enabled {
		fmt.Println("tracing disabled (start mmserver with -trace-sample or -trace-slow)")
		return nil
	}
	ring, label := out.Snapshot.Recent, "recent"
	if slow {
		ring, label = out.Snapshot.Slow, "slow"
	}
	fmt.Printf("%s traces: %d shown (sampled %d, slow-captured %d; sample 1-in-%d, slow threshold %.3gms)\n",
		label, len(ring), out.Snapshot.Sampled, out.Snapshot.SlowCaptured,
		out.Snapshot.SampleEvery, out.Snapshot.SlowThresholdMS)
	if n > 0 && len(ring) > n {
		ring = ring[:n]
	}
	for _, ts := range ring {
		marks := ""
		if ts.Slow {
			marks += " SLOW"
		}
		if ts.Synthetic {
			marks += " synthetic"
		}
		fmt.Printf("  %s  %-22s %9.3fms  %d span(s)%s\n",
			ts.Trace, ts.Root, ts.DurationMS, len(ts.Spans), marks)
	}
	return nil
}

// printTrace renders one trace's spans as a tree.
func printTrace(ts trace.TraceSnapshot) {
	fmt.Printf("trace %s  root %s  %.3fms", ts.Trace, ts.Root, ts.DurationMS)
	if ts.RemoteParent != "" {
		fmt.Printf("  (joined remote parent %s)", ts.RemoteParent)
	}
	fmt.Println()
	children := map[string][]trace.SpanSnapshot{}
	byID := map[string]bool{}
	for _, s := range ts.Spans {
		byID[s.ID] = true
	}
	var roots []trace.SpanSnapshot
	for _, s := range ts.Spans {
		// A span whose parent is outside the capture (remote, or the root
		// itself) prints at the top level.
		if s.Parent != "" && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var walk func(s trace.SpanSnapshot, depth int)
	walk = func(s trace.SpanSnapshot, depth int) {
		attrs := ""
		for _, a := range s.Attrs {
			attrs += fmt.Sprintf(" %s=%v", a.Key, a.Value())
		}
		fmt.Printf("  %*s%-*s %11.1fµs%s\n", 2*depth, "", 28-2*depth, s.Name, s.DurationUS, attrs)
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, s := range roots {
		walk(s, 0)
	}
}

// httpExplain reads /explainz and renders the adaptation story: current
// vectors with their stable ids, then the audit journal — one line per
// structural operation with the cosine-vs-θ rationale and the strength
// movement. With doc ≥ 0, the score-side explanation follows.
func httpExplain(addr, user string, doc int64) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := addr + "/explainz?user=" + user
	if doc >= 0 {
		url += fmt.Sprintf("&doc=%d", doc)
	}
	body, err := httpGet(url)
	if err != nil {
		return err
	}
	var out struct {
		Profile struct {
			User    string `json:"user"`
			Learner string `json:"learner"`
			Size    int    `json:"size"`
			Vectors []struct {
				ID             uint64   `json:"id"`
				Strength       float64  `json:"strength"`
				CreatedAt      int      `json:"created_at"`
				Incorporations int      `json:"incorporations"`
				TopTerms       []string `json:"top_terms"`
			} `json:"vectors"`
			Audit []core.AuditEvent `json:"audit"`
		} `json:"profile"`
		Explanation *core.Explanation `json:"explanation"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("explainz: %w", err)
	}
	p := out.Profile
	fmt.Printf("%s: learner %s, %d vector(s)\n", p.User, p.Learner, p.Size)
	for _, v := range p.Vectors {
		fmt.Printf("  vector %d  strength %.3f  incorporations %d  since step %d  [%s]\n",
			v.ID, v.Strength, v.Incorporations, v.CreatedAt, strings.Join(v.TopTerms, " "))
	}
	if len(p.Audit) > 0 {
		fmt.Printf("audit journal (%d event(s)):\n", len(p.Audit))
		for _, ev := range p.Audit {
			line := fmt.Sprintf("  step %-5d %-11s", ev.Step, ev.Op)
			if ev.Vector != 0 {
				line += fmt.Sprintf(" vector %d", ev.Vector)
			}
			if ev.Merged != 0 {
				line += fmt.Sprintf(" ⟵ vector %d", ev.Merged)
			}
			line += fmt.Sprintf("  cos %.3f vs θ %.3f  strength %.3f→%.3f",
				ev.Cosine, ev.Theta, ev.StrengthBefore, ev.StrengthAfter)
			if ev.Doc != 0 {
				line += fmt.Sprintf("  doc %d", ev.Doc)
			}
			if ev.Trace != "" {
				line += "  trace " + ev.Trace
			}
			fmt.Println(line)
		}
	}
	if out.Explanation != nil {
		ex := out.Explanation
		fmt.Printf("doc %d: score %.4f via vector %d (strength %.3f)\n",
			doc, ex.Score, ex.VectorID, ex.Strength)
		for _, c := range ex.Contributions {
			fmt.Printf("  %-20s %.4f\n", c.Term, c.Weight)
		}
	}
	return nil
}

// httpTop fetches /topz in its table rendering and prints it verbatim:
// per dimension, the hottest k keys with their sketch counts and error
// bounds plus the 10s windowed rate.
func httpTop(addr string, k int, dim string) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := fmt.Sprintf("%s/topz?format=table&k=%d", addr, k)
	if dim != "" {
		url += "&dim=" + dim
	}
	body, err := httpGet(url)
	if err != nil {
		return err
	}
	os.Stdout.Write(body)
	return nil
}

// httpHealth reads /healthz (liveness) and /readyz (readiness) and renders
// both: the liveness line, the readiness rollup, and one line per component
// with its status, reason, and heartbeat age. Exits 1 when the server is
// not ready, so scripts can gate on `mmclient health`.
func httpHealth(addr string) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	body, err := httpGet(addr + "/healthz")
	if err != nil {
		return err
	}
	fmt.Printf("liveness   %s\n", strings.TrimSpace(string(body)))

	// /readyz answers 503 while not ready — with the same JSON body — so
	// it needs a fetch path that keeps the body on non-200.
	resp, err := http.Get(addr + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var snap obs.HealthSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	fmt.Printf("readiness  %s (HTTP %d)\n", snap.Status, resp.StatusCode)
	if len(snap.Components) > 0 {
		width := 0
		names := make([]string, 0, len(snap.Components))
		for name := range snap.Components {
			names = append(names, name)
			if len(name) > width {
				width = len(name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			c := snap.Components[name]
			line := fmt.Sprintf("  %-*s  %s", width, name, c.Status)
			if c.Reason != "" {
				line += "  (" + c.Reason + ")"
			}
			if c.LastBeatAgoMS > 0 {
				line += fmt.Sprintf("  beat %dms ago", c.LastBeatAgoMS)
			}
			fmt.Println(line)
		}
	}
	if !snap.Ready() {
		os.Exit(1)
	}
	return nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// printKV writes one aligned "key  value" line per entry, sorted by key.
// Histogram snapshots (maps) render as count/p50/p95/p99.
func printKV(m map[string]any, indent string) {
	keys := make([]string, 0, len(m))
	width := 0
	for k := range m {
		keys = append(keys, k)
		if len(k) > width {
			width = len(k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := m[k].(type) {
		case map[string]any:
			if _, dim := v["total_weight"]; dim { // a top-k dimension; `mmclient top` lists its entries
				fmt.Printf("%s%-*s  total=%s tracked=%s/%s\n", indent, width, k,
					num(v["total_weight"]), num(v["tracked"]), num(v["capacity"]))
				continue
			}
			fmt.Printf("%s%-*s  count=%s p50=%s p95=%s p99=%s\n", indent, width, k,
				num(v["count"]), num(v["p50"]), num(v["p95"]), num(v["p99"]))
		default:
			fmt.Printf("%s%-*s  %s\n", indent, width, k, num(v))
		}
	}
}

// num formats a JSON-decoded number compactly (integers without a
// trailing .0, latencies with enough precision to be useful).
func num(v any) string {
	f, ok := v.(float64)
	if !ok {
		return fmt.Sprint(v)
	}
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.6g", f)
}

func parse(fs *flag.FlagSet, args []string) {
	_ = fs.Parse(args) // ExitOnError
}

func check(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mmclient:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mmclient [-addr host:port] subscribe|unsubscribe|publish|listen|feedback|profile|fetch|export|import|stats|trace|explain|top|health [flags]")
	os.Exit(2)
}
