package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric of BENCHMARK.json: the end-to-end ones carry
// the bound by which they may worsen, the per-layer ones do not.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is the benchmark's gated list, the same for every workload.
// failed_share is not in it because a gated metric may never be 0 and this
// one must always be: failures are reported as the result line's failed /
// attempted, and any failure also makes the run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.10},
}

// demoted are the four timings the issue wanted gated at 0.10. Identical
// code does not repeat them within 0.10 on the hosts this runs on (LEDGER.md
// has the runs), so by the issue's own rule they are per-layer metrics of the
// top rung, without a bound. Every run still measures and prints them, the
// untraced run with tracing off, and compare reports their spread: a gain is
// claimed on them by paired runs, not by a gate.
var demoted = []metricDef{
	{"wire.ops_per_s", "1/s", "higher", 0},
	{"wire.op_p50_ms", "ms", "lower", 0},
	{"wire.deliver_p50_ms", "ms", "lower", 0},
	{"wire.server_cpu_us_per_op", "us", "lower", 0},
}

// result is the last line of a run's standard output: of Metrics, exactly
// the end-to-end list for an untraced run and the per-layer list for a traced
// one.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as selftest and compare store it: the result plus what
// a ledger row needs to say where and how it was measured.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Inputs   string   `json:"inputs_sha256"`
	Host     hostInfo `json:"host"`
	Failures []string `json:"failures,omitempty"`
	// Findings are what a reader must know before using the run's numbers:
	// a generator-bound run, a dominance share a workload was sized for and
	// missed, latency no layer accounts for. They do not fail the run.
	Findings []string `json:"findings,omitempty"`
	result
}

// primaryOp is the request whose latency op_p50_ms reports: publish on the
// publish-only workloads, durable feedback on the feedback workloads.
func primaryOp(sp spec) opKind {
	if sp.FeedbackPerPublish > 0 {
		return opFeedback
	}
	return opPublish
}

// sliceRates returns, per slice of the window, the request rate (1/s) and
// the server's CPU per request (us). A slice in which nothing completed has
// a rate of 0 and a CPU per request of 0.
func sliceRates(samples []sample) (rates, cpus []float64) {
	for i := 0; i+1 < len(samples); i++ {
		a, b := samples[i], samples[i+1]
		dops := float64(b.ops - a.ops)
		rates = append(rates, div(dops, float64(b.t-a.resume)/1e9))
		cpus = append(cpus, div(float64(b.cpu-a.cpu)/1e3, dops))
	}
	return rates, cpus
}

// div is a/b, or 0 when there is nothing to divide by.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sliceOf returns the index of the slice t falls in, -1 if none.
func sliceOf(samples []sample, t int64) int {
	i := sort.Search(len(samples), func(k int) bool { return samples[k].resume > t }) - 1
	if i < 0 || i >= len(samples)-1 || t >= samples[i+1].t {
		return -1
	}
	return i
}

// inWindow reports whether a request was acknowledged inside a slice of the
// window — or at all, for a run without slices (the smoke test).
func inWindow(out *outcome, rec *opRec) bool {
	return rec.ok && (len(out.samples) < 2 || sliceOf(out.samples, rec.tAck) >= 0)
}

// windowOps returns the latencies (ms, sorted) of the acknowledged requests
// of one kind inside the window's slices.
func windowOps(out *outcome, kind opKind) []float64 {
	var lat []float64
	for i := range out.log {
		if rec := &out.log[i]; rec.kind == kind && inWindow(out, rec) {
			lat = append(lat, float64(rec.tAck-rec.tCall)/1e6)
		}
	}
	sort.Float64s(lat)
	return lat
}

// deliveryLatencies joins what the sessions received with when the
// publishers called, post hoc: publish call → frame returned by
// Session.Recv, for documents whose publish was acknowledged inside a slice
// of the window. Milliseconds, sorted.
func deliveryLatencies(out *outcome) []float64 {
	called := make(map[int64]int64)
	for i := range out.log {
		if rec := &out.log[i]; rec.kind == opPublish && inWindow(out, rec) {
			called[rec.doc] = rec.tCall
		}
	}
	var lat []float64
	for _, st := range out.sessions {
		for _, rv := range st.recv {
			if at, ok := called[rv.doc]; ok {
				lat = append(lat, float64(rv.at-at)/1e6)
			}
		}
	}
	sort.Float64s(lat)
	return lat
}

// windowMetrics turns a run's outcome into the end-to-end metrics and the
// demoted timings. Rates, CPU per request and resident memory are medians
// over the window's quarter-second slices, so a stalled slice (a neighbour's
// burst, a collection at the wrong moment) does not move them.
func windowMetrics(r *runner, out *outcome) (map[string]metric, []float64) {
	sp := r.in.spec
	m := map[string]metric{}
	m["setup_s"] = metric{median(r.setupSecs), "s"}
	// The server's memory still creeps up through a window (the retention
	// ring fills, profiles grow, heap peaks ratchet), so the value at the
	// window's end rides on the last collection's timing; the median over
	// the slice boundaries spreads a third as wide.
	var rss []float64
	for _, sm := range out.samples {
		rss = append(rss, float64(sm.rssKB)/1024)
	}
	m["server_rss_mb"] = metric{median(rss), "MB"}

	rates, cpus := sliceRates(out.samples)
	m["wire.ops_per_s"] = metric{median(rates), "1/s"}
	m["wire.server_cpu_us_per_op"] = metric{median(cpus), "us"}
	m["wire.op_p50_ms"] = metric{percentile(windowOps(out, primaryOp(sp)), 50), "ms"}
	dl := deliveryLatencies(out)
	m["wire.deliver_p50_ms"] = metric{percentile(dl, 50), "ms"}
	return m, dl
}

// hostShares are the two numbers that say whose speed a run measured: the
// share of its one core the generator used over the window, and the share of
// the host's CPU time the hypervisor gave to someone else.
func hostShares(out *outcome) map[string]metric {
	window := float64(out.w1-out.w0) / 1e9
	return map[string]metric{
		"loadgen.cpu_share": {div(float64(out.genCPU)/1e9, window), "share"},
		"host.steal_share":  {out.steal, "share"},
	}
}

// generatorBound is the share of its core above which the generator, not
// the server, set the request rate.
const generatorBound = 0.8

// dominance states, per workload, the shares of a publish's in-process
// service time (the traced run's trace.*_share metrics) the workload was
// sized to show: what makes match the workload where matching gains show and
// fanout the one where they must not.
var dominance = map[string][]struct {
	metric  string
	atLeast bool
	share   float64
}{
	"match":  {{"trace.text_index_share", true, 0.60}},
	"fanout": {{"trace.index_share", false, 0.10}, {"trace.fanout_session_share", true, 0.60}},
}

// findings lists what a reader must know before using a run's numbers. A
// missed dominance share is a finding and not a failure: a later change that
// makes matching twice as fast lowers match's text+index share, and must not
// break the benchmark by succeeding.
func findings(sp spec, metrics, shares map[string]metric) []string {
	var out []string
	if g := shares["loadgen.cpu_share"].Value; g > generatorBound {
		out = append(out, fmt.Sprintf("generator-bound: loadgen.cpu_share %.2f is over %.1f, the one-core generator set the request rate; read wire.server_cpu_us_per_op, not the rates and latencies", g, generatorBound))
	}
	if _, traced := metrics["trace.unattributed_share"]; !traced {
		return out
	}
	for _, d := range dominance[sp.Name] {
		got := metrics[d.metric].Value
		if d.atLeast && got < d.share {
			out = append(out, fmt.Sprintf("dominance missed: %s is %.2f, %s was sized for at least %.2f", d.metric, got, sp.Name, d.share))
		}
		if !d.atLeast && got > d.share {
			out = append(out, fmt.Sprintf("dominance missed: %s is %.2f, %s was sized for at most %.2f", d.metric, got, sp.Name, d.share))
		}
	}
	if u := metrics["trace.unattributed_share"].Value; u > 0.10 {
		out = append(out, fmt.Sprintf("trace.unattributed_share %.2f is over 0.10: that share of a request's latency is in no layer's public call (queueing behind the other connection, the kernel's socket path)", u))
	}
	return out
}

// printMetrics writes a "name value unit" row for every name in order that
// metrics holds.
func printMetrics(w io.Writer, title string, metrics map[string]metric, order []string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, name := range order {
		if mt, ok := metrics[name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, mt.Value, mt.Unit)
		}
	}
}

// resultLine renders the contract's last line: exactly correct, attempted,
// failed and, of the metrics, those of the given list.
func resultLine(res result, list []metricDef) string {
	listed := make(map[string]metric, len(list))
	for _, d := range list {
		listed[d.Name] = res.Metrics[d.Name]
	}
	res.Metrics = listed
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(b)
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func joinFailures(fs []string) string {
	if len(fs) == 0 {
		return ""
	}
	return "  - " + strings.Join(fs, "\n  - ")
}
