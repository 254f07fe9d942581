package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/daemon"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/journal"
	"ghostbuster/internal/machine"
)

// Daemon workload shape. daemonRate was set once, at about a third of
// the capacity measured on the default seed (see README.md), and is
// never recalibrated: later changes are judged at the same offered load.
const (
	daemonHosts = 32
	daemonRate  = 6.0 // events per second
	// infectPerMille of events install a catalog ghostware on a clean
	// host instead of a benign mutation.
	infectPerMille = 40
	// lagBound is the generator's own lateness (p99) beyond which the
	// open-loop schedule was not kept and the run is invalid.
	lagBound = 50 * time.Millisecond
)

// daemonRig is an in-process daemon served on a loopback HTTP server.
type daemonRig struct {
	d        *daemon.Daemon
	srv      *httptest.Server
	names    []string
	ms       []*machine.Machine
	churn    []*churner
	infected map[string]bool
	prevKeys []string
}

func buildDaemonRig(seed int64, dir string, hosts int) (*daemonRig, error) {
	d, err := daemon.New(daemon.Config{StateDir: dir, Profile: "standard", Seed: seed, AdmitQueue: 8})
	if err != nil {
		return nil, err
	}
	g := &daemonRig{d: d, infected: map[string]bool{}}
	for i := 0; i < hosts; i++ {
		hseed := int64(mix(uint64(seed) ^ uint64(i+1)<<20))
		p := machine.DefaultProfile()
		p.DiskUsedGB = 0.05
		p.Churn = nil
		p.Seed = hseed
		p.MFTHeadroom, p.ClusterHeadroom = 256, 256
		m, err := machine.New(p)
		if err != nil {
			return nil, err
		}
		// The user files the catalog's commercial hiders target.
		for _, f := range []string{`C:\Private\diary.txt`, `C:\Shared\docs.txt`} {
			if err := m.DropFile(f, []byte("user data")); err != nil {
				return nil, err
			}
		}
		name := fmt.Sprintf("node-%02d", i)
		if err := d.RegisterMachine(name, m); err != nil {
			return nil, err
		}
		g.names = append(g.names, name)
		g.ms = append(g.ms, m)
		g.churn = append(g.churn, &churner{seed: hseed})
	}
	if _, err := d.Start(); err != nil {
		return nil, err
	}
	g.srv = httptest.NewServer(d.Handler())
	// Prime: the first sweep parses every host cold.
	if _, _, err := g.post(); err != nil {
		g.close()
		return nil, err
	}
	g.changed() // baseline generation keys
	return g, nil
}

func (g *daemonRig) close() {
	g.srv.Close()
	g.d.Shutdown()
}

// post sends POST /v1/sweeps and returns the decoded sweep, the body
// size, and an error for any non-200 answer.
func (g *daemonRig) post() (*daemon.SweepInfo, int, error) {
	resp, err := g.srv.Client().Post(g.srv.URL+"/v1/sweeps", "application/json", nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(body), fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var info daemon.SweepInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, len(body), err
	}
	return &info, len(body), nil
}

// catalogMenu is the ghostware an infection event installs.
var catalogMenu = ghostware.Catalog()

// mutate applies event k: usually a benign churn batch on one seeded
// host, on a fixed seeded share an infection of a clean host.
func (g *daemonRig) mutate(seed int64, k int) error {
	rng := rand.New(rand.NewSource(int64(mix(uint64(seed) ^ uint64(k+1)<<32))))
	idx := rng.Intn(len(g.ms))
	if rng.Intn(1000) < infectPerMille {
		var clean []int
		for i, n := range g.names {
			if !g.infected[n] {
				clean = append(clean, i)
			}
		}
		if len(clean) > 0 {
			i := clean[rng.Intn(len(clean))]
			e := catalogMenu[rng.Intn(len(catalogMenu))]
			gw := e.New()
			if err := gw.Install(g.ms[i]); err != nil {
				return fmt.Errorf("installing %s on %s: %w", e.Name, g.names[i], err)
			}
			if e.Arm != nil {
				if err := e.Arm(g.ms[i], gw); err != nil {
					return fmt.Errorf("arming %s on %s: %w", e.Name, g.names[i], err)
				}
			}
			g.infected[g.names[i]] = true
			return nil
		}
	}
	return g.churn[idx].batch(g.ms[idx], k)
}

// changed counts hosts whose generation key moved since the last call.
func (g *daemonRig) changed() int {
	n := 0
	keys := make([]string, len(g.ms))
	for i, m := range g.ms {
		keys[i] = core.GenerationKey(m)
		if len(g.prevKeys) > 0 && keys[i] != g.prevKeys[i] {
			n++
		}
	}
	g.prevKeys = keys
	return n
}

// verify checks one answered sweep: every host scanned, nothing failed,
// degraded or quarantined, and the infected set equals the hosts
// infected so far.
func (g *daemonRig) verify(info *daemon.SweepInfo) (failed bool, mismatch int, why []string) {
	failed = info.Err != "" || info.Aborted || info.Scanned != len(g.names)
	for _, h := range g.d.Hosts() {
		if h.Error != "" || h.Degraded > 0 || h.Quarantined {
			failed = true
		}
	}
	got := append([]string(nil), info.Infected...)
	sort.Strings(got)
	var want []string
	for n := range g.infected {
		want = append(want, n)
	}
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return failed, 1, []string{fmt.Sprintf("sweep %d: infected %v, planted %v", info.ID, got, want)}
	}
	return failed, 0, nil
}

// sweepVirtual is the mean modelled host scan time of a finished sweep,
// read back from its journal's terminal records.
func sweepVirtual(path string) (float64, error) {
	recs, _, err := journal.Read(path)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	n := 0
	for _, rec := range recs {
		if rec.State.Terminal() {
			sum += time.Duration(rec.ElapsedNs)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("journal %s has no terminal records", path)
	}
	return sum.Seconds() / float64(n), nil
}

// loadStats is what one open-loop stretch measured.
type loadStats struct {
	lag, sweepMs, waitMs, bytes, scanned, changed []float64
	shed, sent                                    int
	virt                                          []float64
}

// openLoop offers events first..first+n-1 at a fixed rate from start.
// A dispatcher goroutine releases each event at its due time and records
// how late it ran (generator lag); one sender applies the event's
// mutation and sends the sweep request, so mutations never race a sweep.
// Latency runs from each event's due time to its answer, so time spent
// queued behind a slow request counts. tr non-nil records spans.
func (g *daemonRig) openLoop(r *runner, first, n int, rate float64, m *meter, st *loadStats, tr *tracer) error {
	type event struct {
		k   int
		due time.Time
		lag time.Duration
	}
	start := time.Now().Add(10 * time.Millisecond)
	ch := make(chan event, n) // sized to every send: the dispatcher never blocks
	go func() {
		defer close(ch)
		for j := 0; j < n; j++ {
			due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			ch <- event{first + j, due, time.Since(due)}
		}
	}()
	c0, a0 := cpuTime(), mallocs()
	var firstErr error
	var last time.Time
	for ev := range ch {
		if firstErr != nil {
			continue // drain so the dispatcher finishes
		}
		st.lag = append(st.lag, ms(ev.lag))
		m0 := time.Now()
		if err := g.mutate(r.seed, ev.k); err != nil {
			firstErr = err
			continue
		}
		m1 := time.Now()
		if tr != nil {
			st.changed = append(st.changed, float64(g.changed()))
		}
		sent := time.Now()
		info, size, err := g.post()
		done := time.Now()
		m.lat = append(m.lat, ms(done.Sub(ev.due)))
		last = done
		st.sent++
		st.bytes = append(st.bytes, float64(size))
		if tr != nil {
			// The operation runs from the event's due time, so time it
			// waited behind earlier requests is the part no layer covers.
			root := tr.record("op", -1, ev.k, ev.due, done)
			tr.record("machine.mutate", root, ev.k, m0, m1)
			req := tr.record("daemon.request", root, ev.k, sent, done)
			if err == nil {
				tr.record("daemon.sweep", req, ev.k, info.Started, info.Finished)
				st.sweepMs = append(st.sweepMs, ms(info.Finished.Sub(info.Started)))
				st.waitMs = append(st.waitMs, ms(done.Sub(sent)-info.Finished.Sub(info.Started)))
				st.scanned = append(st.scanned, float64(info.Scanned))
			}
		}
		if err != nil {
			if strings.Contains(err.Error(), "429") || strings.Contains(err.Error(), "503") {
				st.shed++
			}
			r.check(true, 0, nil)
			r.problem("event %d: %v", ev.k, err)
			continue
		}
		failed, mm, why := g.verify(info)
		r.check(failed, mm, why)
		if len(st.virt) < virtualPrefix {
			v, err := sweepVirtual(info.Journal)
			if err != nil {
				firstErr = err
				continue
			}
			st.virt = append(st.virt, v)
		}
	}
	m.cpu += cpuTime() - c0
	m.allocs += mallocs() - a0
	m.wall += last.Sub(start)
	return firstErr
}

// events is how many events a stretch of the given length offers: at
// least minOps, so latency_p90_ms has ten samples beyond it.
func events(d time.Duration, rate float64, least int) int {
	return max(int(d.Seconds()*rate), least)
}

func runDaemon(r *runner) error {
	var g *daemonRig
	n := 0
	drop := func() {
		if g != nil {
			g.close()
			g = nil
		}
	}
	setupS, err := setupReps(setupRuns, drop, func() (err error) {
		n++
		g, err = buildDaemonRig(r.seed, filepath.Join(r.work, fmt.Sprintf("state-%d", n)), daemonHosts)
		return err
	})
	if err != nil {
		return err
	}
	defer g.close()
	var m meter
	var st loadStats
	if !r.traced {
		if err := g.openLoop(r, 0, events(r.seconds, daemonRate, minOps), daemonRate, &m, &st, nil); err != nil {
			return err
		}
		// Not pinned: the standard profile randomizes each host scan's
		// unit order from a process-wide counter, and four workers draw
		// from it in whatever order they start, so the modelled cost
		// varies in the fourth digit between runs of one seed.
		r.endToEnd(setupS, &m, 1, mean(st.virt))
		r.note("%-28s %14.4f ms (generator lag p99, bound %v)", "loadgen.lag_ms_p99", quantile(st.lag, 0.99), lagBound)
		checkLag(r, st.lag)
		return nil
	}
	var traced meter
	half := events(r.seconds/2, daemonRate, minOps/2)
	if err := g.openLoop(r, 0, half, daemonRate, &traced, &st, r.tr); err != nil {
		return err
	}
	var plain loadStats
	if err := g.openLoop(r, half, half, daemonRate, &m, &plain, nil); err != nil {
		return err
	}
	daemonLayers(r, &st, append(st.lag, plain.lag...))
	r.set("trace.coverage", r.tr.coverage("op", "op"), "ratio")
	r.set("trace.overhead", median(traced.lat)/median(m.lat)-1, "ratio")
	r.set("machine.mutate_us", median(r.tr.durations("machine.mutate"))/1e3, "us")
	// Host layers on a daemon host, warm like the daemon's own scans
	// (the daemon is idle now).
	for i, name := range g.names {
		if !g.infected[name] {
			if err := hostLayerProbe(r, g.ms[i], expectation{}, true); err != nil {
				return err
			}
			return fleetProbe(r)
		}
	}
	return fmt.Errorf("every daemon host is infected")
}

func checkLag(r *runner, lag []float64) {
	if p := quantile(lag, 0.99); p > ms(lagBound) {
		r.problem("run invalid: open-loop generator lag p99 %.1f ms exceeds %v", p, lagBound)
	}
}

func daemonLayers(r *runner, st *loadStats, lag []float64) {
	r.set("daemon.sweep_ms", median(st.sweepMs), "ms")
	r.set("daemon.admission_wait_ms", median(st.waitMs), "ms")
	r.set("daemon.shed_share", float64(st.shed)/float64(max(st.sent, 1)), "ratio")
	r.set("daemon.hosts_scanned_per_sweep", mean(st.scanned), "count")
	r.set("daemon.changed_share", mean(st.changed)/mean(st.scanned), "ratio")
	r.set("daemon.response_bytes", mean(st.bytes), "B")
	r.set("loadgen.lag_ms_p99", quantile(lag, 0.99), "ms")
	checkLag(r, lag)
}

// daemonProbe fills the daemon and loadgen layer metrics for workloads
// that do not drive the daemon: a 4-host daemon offered 40 events.
func daemonProbe(r *runner) error {
	g, err := buildDaemonRig(r.seed, filepath.Join(r.work, "probe-daemon"), 4)
	if err != nil {
		return err
	}
	defer g.close()
	var m meter
	var st loadStats
	if err := g.openLoop(r, 0, 40, 20, &m, &st, r.tr); err != nil {
		return err
	}
	daemonLayers(r, &st, st.lag)
	return nil
}
