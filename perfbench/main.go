// Command perfbench is the repository's end-to-end benchmark. It builds
// one of four seeded workloads in process (a cold paper-fleet host, a
// warm host under benign churn, a sharded fleet sweep, and the resident
// daemon's HTTP API under an open-loop request stream), drives it for a
// fixed wall-clock budget, checks every verdict against the planted
// ghostware, and prints the metrics as one JSON object on the last line
// of standard output. With -trace 1 it instead reports the per-layer
// metrics of a traced run. See README.md for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
//
//	bash perfbench/run.sh --workload host-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one benchmark run's settings and what it measured.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	work     string // scratch directory for journals and state
	tr       *tracer

	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
	mismatch  int
	problems  []string
	notes     []string // extra human-readable lines, not contract metrics
	// det holds quantities that must repeat exactly for a seed; they are
	// compared with earlier runs of the same workload and seed.
	det map[string]string
}

func (r *runner) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a correctness failure; the run then exits non-zero.
func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// pin records a value that must be identical on every run of this
// workload and seed, and flags it if it also varies within the run.
func (r *runner) pin(name string, v any) {
	s := fmt.Sprint(v)
	if old, ok := r.det[name]; ok && old != s {
		r.problem("benchmark bug: %s varies within one run (%s, then %s)", name, old, s)
		return
	}
	r.det[name] = s
}

// note adds a line to the human-readable table only.
func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one attempted operation and its outcome.
func (r *runner) check(failed bool, mismatch int, why []string) {
	r.attempted++
	if failed {
		r.failed++
	}
	if mismatch > 0 {
		r.mismatch += mismatch
		for _, w := range why {
			r.problem("verdict mismatch: %s", w)
		}
	}
}

// setupReps runs build n times, timing each, and returns the median in
// seconds. Only the last build's state is kept: drop releases the
// previous one and its memory is returned to the OS before the next
// build, so peak RSS reflects one set-up.
func setupReps(n int, drop func(), build func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		drop()
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	// Measurement starts from a collected heap, not from whatever
	// garbage the set-ups left.
	runtime.GC()
	return median(ts), nil
}

// setupRuns is how many times each run builds its workload to report
// setup_s as a median.
const setupRuns = 5

// closedLoop runs op back to back (one caller) until the budget is spent
// and at least minOps operations completed, then returns. op(i) must
// time its own operation through m and check it afterwards.
func closedLoop(budget time.Duration, minOps int, start int, op func(i int) error) (int, error) {
	t0 := time.Now()
	i := start
	for time.Since(t0) < budget || i-start < minOps {
		if err := op(i); err != nil {
			return i, err
		}
		i++
	}
	return i, nil
}

// endToEnd sets the end-to-end metrics every workload reports.
// perOp scales throughput (hosts per sweep for fleet-sharded).
func (r *runner) endToEnd(setupS float64, m *meter, perOp float64, virtualScanS float64) {
	n := float64(m.ops())
	r.set("setup_s", setupS, "s")
	r.set("latency_p50_ms", quantile(m.lat, 0.5), "ms")
	r.set("throughput_per_s", n*perOp/m.wall.Seconds(), "1/s")
	r.set("cpu_ms_per_op", ms(m.cpu)/n, "ms")
	r.set("allocs_per_op", float64(m.allocs)/n, "count")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("virtual_scan_s", virtualScanS, "s")
	r.tail(m.lat)
}

// tail notes the latency distribution: the tail percentiles that have
// at least ten samples beyond them, with the sample count. They are not
// contract metrics: on this class of machine their run-to-run spread
// reaches the largest bound a metric may have.
func (r *runner) tail(lat []float64) {
	var qs []string
	for _, q := range []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75} {
		qs = append(qs, fmt.Sprintf("p%.0f=%.2f", q*100, quantile(lat, q)))
	}
	r.note("latency ms %s", strings.Join(qs, " "))
	for _, p := range []struct {
		q    float64
		name string
	}{{0.9, "latency_p90_ms"}, {0.99, "latency_p99_ms"}} {
		if n := len(lat); float64(n)*(1-p.q) >= 10 {
			r.note("%-28s %14.4f ms (n=%d)", p.name, quantile(lat, p.q), n)
		} else {
			r.note("%s unresolved: n=%d", p.name, n)
		}
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runner) error{
	"host-cold":       func(r *runner) error { return runHost(r, false) },
	"host-warm-churn": func(r *runner) error { return runHost(r, true) },
	"fleet-sharded":   runFleet,
	"daemon-api":      runDaemon,
}

func main() {
	wl := flag.String("workload", "", "workload: host-cold, host-warm-churn, fleet-sharded or daemon-api")
	seed := flag.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := flag.Float64("seconds", 10, "measurement budget in wall seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build/perfbench")
	flag.Parse()
	drive, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	base := filepath.Join(*root, ".bench_build", "perfbench")
	work, err := os.MkdirTemp(mkdirAll(base), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	r := &runner{
		workload: *wl, seed: *seed, traced: *trace == 1, work: work,
		seconds: time.Duration(*seconds * float64(time.Second)),
		metrics: map[string]metric{}, det: map[string]string{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	err = drive(r)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	if r.traced {
		path := filepath.Join(base, fmt.Sprintf("spans-%s-%d.json", *wl, *seed))
		if err := r.tr.write(path); err != nil {
			r.problem("writing spans: %v", err)
		}
	}
	r.compareDeterminism(filepath.Join(mkdirAll(filepath.Join(base, "determinism")), fmt.Sprintf("%s-%d-%s.json", *wl, *seed, buildID())))
	if r.mismatch > 0 {
		r.problem("verdict_mismatch = %d", r.mismatch)
	}
	if r.failed > 0 {
		r.problem("failed_share = %d/%d", r.failed, r.attempted)
	}
	r.print()
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

// buildID names this benchmark binary, so determinism records made by
// an earlier build of different code are not compared with this one.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first write
	return dir
}

// compareDeterminism checks the run's pinned values against earlier runs
// of the same workload and seed, and adds any new ones to the record.
func (r *runner) compareDeterminism(path string) {
	prev := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			r.problem("determinism record %s: %v", path, err)
			return
		}
	}
	for k, v := range r.det {
		if old, ok := prev[k]; ok && old != v {
			r.problem("benchmark bug: %s drifted across runs of seed %d (%s, now %s)", k, r.seed, old, v)
		}
		prev[k] = v
	}
	data, err := json.MarshalIndent(prev, "", "  ")
	if err == nil {
		tmp := path + ".tmp"
		if err = os.WriteFile(tmp, data, 0o644); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		r.problem("writing determinism record: %v", err)
	}
}

// print writes the human-readable table, then the contract JSON line.
func (r *runner) print() {
	mode := "end-to-end, tracing off"
	if r.traced {
		mode = "per-layer, traced run"
	}
	fmt.Printf("perfbench %s seed=%d (%s)\n", r.workload, r.seed, mode)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("  %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-28s %14.4f %s\n", "failed_share", share, "ratio")
	fmt.Printf("  %-28s %14d %s\n", "verdict_mismatch", r.mismatch, "count")
	keys := make([]string, 0, len(r.det))
	for k := range r.det {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  pinned %-21s %s\n", k, r.det[k])
	}
	for _, n := range r.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	out := result{Correct: len(r.problems) == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	for k, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		out.Metrics[k] = m
	}
	line, _ := json.Marshal(out)
	fmt.Println(strings.TrimSpace(string(line)))
}
