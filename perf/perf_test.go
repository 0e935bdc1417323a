package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPickPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99},
	} {
		if got := pickPercentile(c.n); got != c.want {
			t.Errorf("pickPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 7.0, 11.0], n=4) == [1.5, 4.0, 9.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 7, 11})
	if q1 != 1.5 || q3 != 9 {
		t.Errorf("quartiles = %v, %v; want 1.5, 9", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 7, 11}); math.Abs(got-7.5/4) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 7.5/4)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},   // overlaps a: only 30..50 is new
		{Name: "c", Start: 90, End: 120, Parent: 0},  // clipped to the parent's end
		{Name: "a1", Start: 12, End: 18, Parent: 1},  // grandchild: a's business only
		{Name: "lone", Start: 5, End: 9, Parent: -1}, // another root
	}
	self := selfTimes(spans)
	want := []int64{100 - (20 + 20 + 10), 20 - 6, 30, 30, 6, 4}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

// small scales a workload down to test size, keeping its shape.
func small(sp spec) spec {
	if sp.Topics > 0 {
		sp.Users, sp.Probes, sp.Topics = 64, 64, 4
		return sp
	}
	sp.Users, sp.Probes, sp.TailOps = 60, 4, 20
	if sp.ResidentShare > 0 {
		// Keep the cap above what the probes' feedback interval can evict.
		sp.ResidentShare = 0.8
	}
	return sp
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		sp := small(sp)
		a, b := generate(sp, 7, 2), generate(sp, 7, 2)
		if a.hash() != b.hash() {
			t.Errorf("%s: the same seed gave two input streams", sp.Name)
		}
		if c := generate(sp, 8, 2); c.hash() == a.hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same input stream", sp.Name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"op_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	loose := func(c float64) []float64 { return []float64{c * 0.7, c * 0.9, c, c * 1.1, c * 1.3} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight(10), tight(10), verdictOK},
		{"within the bound", lower, tight(10), tight(10.8), verdictOK},
		{"slower past the bound", lower, tight(10), tight(11.5), verdictRegressed},
		{"faster is never a regression", lower, tight(10), tight(5), verdictOK},
		{"fewer per second past the bound", higher, tight(1000), tight(850), verdictRegressed},
		{"more per second", higher, tight(1000), tight(1500), verdictOK},
		{"spread wider than the bound hides a regression", lower, loose(10), tight(12), verdictUnresolved},
		{"spread wider than the bound hides agreement too", lower, tight(10), loose(10), verdictUnresolved},
		{"per-layer metrics are not judged", metricDef{"index.match_us", "us", "lower", 0}, tight(10), tight(20), "-"},
	} {
		if got := judge(c.def, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	rows := []comparison{{Verdict: verdictOK}, {Verdict: verdictUnresolved}, {Verdict: "-"}}
	if got := worstVerdict(rows); got != verdictUnresolved {
		t.Errorf("worst of ok, unresolved = %q", got)
	}
	if got := worstVerdict(append(rows, comparison{Verdict: verdictRegressed})); got != verdictRegressed {
		t.Errorf("worst with a regression = %q", got)
	}
}

func TestSliceOfSkipsThePauses(t *testing.T) {
	samples := make([]sample, 6)
	for i := range samples {
		samples[i] = sample{t: int64(i) * 1000, resume: int64(i)*1000 + 10}
	}
	for _, c := range []struct {
		t    int64
		want int
	}{{5, -1}, {10, 0}, {999, 0}, {1000, -1}, {1009, -1}, {1010, 1}, {4999, 4}, {5000, -1}, {9000, -1}} {
		if got := sliceOf(samples, c.t); got != c.want {
			t.Errorf("sliceOf(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestLRUMirrorsACap(t *testing.T) {
	l := newLRU(2)
	step := func(user int, wantCold bool, wantEvicted int) {
		t.Helper()
		cold, ev := l.touch(user)
		if cold != wantCold || ev != wantEvicted {
			t.Errorf("touch(%d) = cold %v evicted %d, want %v %d", user, cold, ev, wantCold, wantEvicted)
		}
	}
	step(1, true, -1)
	step(2, true, -1)
	step(1, false, -1)
	step(3, true, 2) // 2 is the least recently used
	step(2, true, 1)
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the lists the
// harness reports from, so the two cannot drift apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perf/: %v", err)
	}
	var b struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload's whole path — population, sessions, the
// closed loop with its exclusive checked publishes, the drain, the reference
// replay and every output check — for 200 requests against an in-process
// server over net.Pipe. The restart workload runs without its recovery
// phase here: an in-process server cannot be killed and booted again.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := small(sp)
		t.Run(sp.Name, func(t *testing.T) {
			began := time.Now()
			dir := t.TempDir()
			old, err := os.Getwd()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Chdir(dir); err != nil {
				t.Fatal(err)
			}
			defer os.Chdir(old)
			in := generate(sp, 3, 2)
			r := &runner{in: in, fac: pipeFactory{}, opts: runOptions{
				setupRepeats: 1, maxOps: 200, drivers: 2, checkEvery: 10, traced: true,
			}}
			out, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(began); d > 5*time.Second {
				t.Errorf("smoke run took %v, the budget is 5s", d)
			}
			if len(r.failures) > 0 {
				t.Fatalf("output checks failed:\n%s", joinFailures(r.failures))
			}
			attempted, failed := r.failedOps(out.log, out.sessions)
			if attempted < 200 || failed != 0 {
				t.Errorf("attempted %d, failed %d", attempted, failed)
			}
			checked, feedbacks := 0, 0
			for _, rec := range out.log {
				if rec.checked {
					checked++
				}
				if rec.kind == opFeedback {
					feedbacks++
				}
			}
			if checked == 0 {
				t.Error("no publish was checked against the reference")
			}
			if (sp.FeedbackPerPublish > 0) != (feedbacks > 0) {
				t.Errorf("%d feedbacks on a workload with FeedbackPerPublish=%d", feedbacks, sp.FeedbackPerPublish)
			}
			deliveries := deliveryLatencies(out)
			if len(deliveries) == 0 {
				t.Error("no delivery was joined to its publish")
			}
			// The ladder must time the requests it replays: every layer the
			// workload crosses reports a time, and the spans are written.
			e := &env{outDir: dir}
			layers, err := e.ladder(r, out, deliveries)
			if err != nil {
				t.Fatal(err)
			}
			crossed := []string{"text.vectorise_us", "index.match_us", "pubsub.publish_us", "trace.fanout_session_share"}
			if sp.FeedbackPerPublish > 0 {
				crossed = append(crossed, "core.observe_us", "index.reindex_us", "store.append_us", "pubsub.feedback_us")
			}
			for _, name := range crossed {
				if layers[name].Value <= 0 {
					t.Errorf("%s = %v, the ladder timed nothing for it", name, layers[name].Value)
				}
			}
			for _, d := range perLayer {
				if _, ok := layers[d.Name]; !ok && !isDemoted(d.Name) {
					t.Errorf("the ladder does not report %s", d.Name)
				}
			}
			if st, err := os.Stat(dir + "/" + sp.Name + ".spans.jsonl"); err != nil || st.Size() == 0 {
				t.Errorf("no spans written: %v", err)
			}
		})
	}
}

func isDemoted(name string) bool {
	for _, d := range demoted {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestLadderLogTimesTheWindow pins the cut of the replayed log: everything
// before the window is kept (it rebuilds the server's state), and the cut
// falls after the ladderOps-th request acknowledged inside the window.
func TestLadderLogTimesTheWindow(t *testing.T) {
	out := &outcome{samples: []sample{{t: 0, resume: 1000}, {t: 1 << 40, resume: 1 << 40}}}
	const before = 3000 // warm-up requests, acknowledged before the window opens
	for i := 0; i < before+2*ladderOps; i++ {
		rec := opRec{ok: true, tAck: int64(i % 1000)}
		if i >= before {
			rec.tAck = 1000 + int64(i)
		}
		out.log = append(out.log, rec)
	}
	out.log[before+5].ok = false // a failed request is replayed by no rung and counts for nothing
	log, timed := ladderLog(out)
	if timed != ladderOps || len(log) != before+ladderOps+1 {
		t.Errorf("cut holds %d requests, %d of them timed; want %d and %d", len(log), timed, before+ladderOps+1, ladderOps)
	}
	out.log = out.log[:before]
	if _, timed := ladderLog(out); timed != 0 {
		t.Errorf("%d requests timed in a log that ends before the window", timed)
	}
}

func TestFindings(t *testing.T) {
	sp, _ := findSpec("match")
	quiet := map[string]metric{"loadgen.cpu_share": {Value: 0.2}}
	if got := findings(sp, map[string]metric{"setup_s": {Value: 1}}, quiet); len(got) != 0 {
		t.Errorf("an untraced, server-bound run has findings: %v", got)
	}
	busy := map[string]metric{"loadgen.cpu_share": {Value: 0.85}}
	if got := findings(sp, map[string]metric{}, busy); len(got) != 1 || !strings.HasPrefix(got[0], "generator-bound") {
		t.Errorf("a generator at 0.85 of its core: %v", got)
	}
	traced := map[string]metric{"trace.unattributed_share": {Value: 0.05}, "trace.text_index_share": {Value: 0.55}}
	if got := findings(sp, traced, quiet); len(got) != 1 || !strings.HasPrefix(got[0], "dominance missed") {
		t.Errorf("match with text+index at 0.55: %v", got)
	}
	sp, _ = findSpec("fanout")
	traced = map[string]metric{"trace.unattributed_share": {Value: 0.5}, "trace.index_share": {Value: 0.2}, "trace.fanout_session_share": {Value: 0.7}}
	if got := findings(sp, traced, quiet); len(got) != 2 {
		t.Errorf("fanout with index at 0.2 and a request half unattributed: %v", got)
	}
}

// TestResultLineHoldsExactlyTheList: the contract's last line carries the
// listed metrics and no other, whatever else a run measured.
func TestResultLineHoldsExactlyTheList(t *testing.T) {
	res := result{Correct: true, Attempted: 10, Metrics: map[string]metric{
		"setup_s": {1.5, "s"}, "server_rss_mb": {80, "MB"}, "wire.ops_per_s": {1000, "1/s"},
	}}
	var back struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(resultLine(res, endToEnd)), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != len(endToEnd) || back.Metrics["setup_s"].Value != 1.5 {
		t.Errorf("untraced line holds %v", back.Metrics)
	}
	if _, ok := res.Metrics["wire.ops_per_s"]; !ok {
		t.Error("rendering the line dropped a metric from the record")
	}
}

// TestCheckCatchesAWrongDelivery makes sure the brute-force check is live: an
// acknowledged delivery count the reference cannot explain must be reported.
func TestCheckCatchesAWrongDelivery(t *testing.T) {
	sp, _ := findSpec("match")
	in := generate(small(sp), 3, 2)
	m := newModel(in)
	var reports int
	log := []opRec{{kind: opPublish, ok: true, checked: true, page: 0, doc: 0, delivered: int32(len(in.users) + 1)}}
	if err := m.replay(log, nil, func(string, ...any) { reports++ }); err != nil {
		t.Fatal(err)
	}
	if reports == 0 {
		t.Error("a publish acknowledged with more deliveries than there are users passed the check")
	}
}
