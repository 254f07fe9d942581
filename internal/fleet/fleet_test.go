package fleet

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
)

func buildFleet(t *testing.T, n int, infect map[int]ghostware.Ghostware) *Manager {
	t.Helper()
	mgr := NewManager()
	for i := 0; i < n; i++ {
		p := machine.DefaultProfile()
		p.DiskUsedGB = 1
		p.Churn = nil
		p.Seed = int64(i + 1)
		m, err := machine.New(p)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := infect[i]; ok {
			if err := g.Install(m); err != nil {
				t.Fatal(err)
			}
		}
		mgr.Add(hostName(i), m)
	}
	return mgr
}

func hostName(i int) string { return "host-" + string(rune('a'+i)) }

// sweepResults runs an unjournaled sweep and returns every committed
// result in host order.
func sweepResults(t testing.TB, mgr *Manager, kind SweepKind, workers int) []HostResult {
	t.Helper()
	var results []HostResult
	if _, err := mgr.SweepStreamed(kind, workers, func(res HostResult) { results = append(results, res) }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Host < results[j].Host })
	return results
}

// verdicts lists the infected hosts and the per-host errors of a sweep.
func verdicts(results []HostResult) (infected, errs []string) {
	for _, r := range results {
		if r.Err != "" {
			errs = append(errs, fmt.Sprintf("%s: %s", r.Host, r.Err))
			continue
		}
		if r.Infected {
			infected = append(infected, r.Host)
		}
	}
	return infected, errs
}

func TestInsideSweepClassifiesFleet(t *testing.T) {
	mgr := buildFleet(t, 4, map[int]ghostware.Ghostware{
		1: ghostware.NewHackerDefender(),
		3: ghostware.NewUrbin(),
	})
	var results []HostResult
	sum, err := mgr.SweepStreamed(SweepInside, 1, func(res HostResult) { results = append(results, res) })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	infected, errs := verdicts(results)
	if sum.Hosts != 4 || len(errs) != 0 {
		t.Fatalf("summary = %+v, errors = %v", sum, errs)
	}
	want := map[string]bool{hostName(1): true, hostName(3): true}
	if len(infected) != 2 || sum.Infected != 2 {
		t.Fatalf("infected = %v", infected)
	}
	for _, h := range infected {
		if !want[h] {
			t.Errorf("false positive host %s", h)
		}
	}
	for _, r := range results {
		if r.Elapsed <= 0 {
			t.Errorf("host %s consumed no virtual time", r.Host)
		}
	}
}

func TestOutsideSweepRebootsHostsBack(t *testing.T) {
	mgr := buildFleet(t, 2, map[int]ghostware.Ghostware{0: ghostware.NewVanquish()})
	infected, _ := verdicts(sweepResults(t, mgr, SweepOutside, 1))
	if len(infected) != 1 || infected[0] != hostName(0) {
		t.Fatalf("infected = %v", infected)
	}
	// Every host is back in service after the netboot scan.
	for i := 0; i < 2; i++ {
		m := mgrHost(t, mgr, hostName(i))
		if _, err := m.Pid("explorer.exe"); err != nil {
			t.Errorf("%s not rebooted: %v", hostName(i), err)
		}
	}
}

func mgrHost(t *testing.T, mgr *Manager, name string) *machine.Machine {
	t.Helper()
	for _, h := range mgr.hosts {
		if h.Name == name {
			return h.M
		}
	}
	t.Fatalf("no host %s", name)
	return nil
}

// TestReportJSONRoundTrip: the report the management console reads
// renders as JSON and round-trips without losing hosts or verdicts.
func TestReportJSONRoundTrip(t *testing.T) {
	mgr := buildFleet(t, 2, map[int]ghostware.Ghostware{1: ghostware.NewBerbew()})
	rep, err := mgr.SweepJournaled(SweepInside, 1, filepath.Join(t.TempDir(), "sweep.gbj"), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Results) != 2 {
		t.Errorf("round trip lost hosts: %d", len(back.Results))
	}
	if !strings.Contains(string(data), `"infected": true`) {
		t.Error("JSON missing infection flag")
	}
}

// TestParallelSweepMatchesSequential: the fan-out must produce exactly
// the sequential results (machines are independent; determinism holds)
// at every scheduler bound the acceptance matrix names.
func TestParallelSweepMatchesSequential(t *testing.T) {
	build := func() *Manager {
		return buildFleet(t, 5, map[int]ghostware.Ghostware{
			1: ghostware.NewHackerDefender(),
			4: ghostware.NewVanquish(),
		})
	}
	seq := sweepResults(t, build(), SweepInside, 1)
	for _, workers := range []int{1, 4, 64} {
		par := sweepResults(t, build(), SweepInside, workers)
		if len(seq) != len(par) {
			t.Fatalf("workers=%d: result counts differ: %d vs %d", workers, len(seq), len(par))
		}
		for i := range seq {
			if seq[i].Host != par[i].Host || seq[i].Infected != par[i].Infected || seq[i].Hidden != par[i].Hidden {
				t.Errorf("workers=%d host %s: seq {inf %v hid %d} vs par {inf %v hid %d}",
					workers, seq[i].Host, seq[i].Infected, seq[i].Hidden, par[i].Infected, par[i].Hidden)
			}
		}
	}
}

// tinyFleet enrolls n machineless hosts for scheduler-focused tests,
// which drive them through the ScanHost seam.
func tinyFleet(n int) *Manager {
	mgr := NewManager()
	for i := 0; i < n; i++ {
		mgr.AddLazy(fmt.Sprintf("host-%03d", i), nil)
	}
	return mgr
}

// TestSchedulerBoundsConcurrency: at parallelism k, no more than k host
// scans may ever be in flight, regardless of fleet size.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	mgr := tinyFleet(16)
	const workers = 3
	var inFlight, peak int32
	mgr.ScanHost = func(h *Host, _ SweepKind) HostResult {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			old := atomic.LoadInt32(&peak)
			if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		return HostResult{Host: h.Name}
	}
	if _, err := mgr.SweepStreamed(SweepInside, workers, nil); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt32(&peak); p > workers {
		t.Fatalf("concurrency peaked at %d, bound is %d", p, workers)
	}
	if p := atomic.LoadInt32(&peak); p == 0 {
		t.Fatal("no scan ever ran")
	}
}

// TestSchedulerCapturesPanics: one exploding host must not take down the
// sweep; it becomes that host's error result.
func TestSchedulerCapturesPanics(t *testing.T) {
	mgr := tinyFleet(4)
	n := 0
	var failed string
	mgr.ScanHost = func(h *Host, _ SweepKind) HostResult {
		if h.Name == "host-002" {
			panic("disk on fire")
		}
		return HostResult{Host: h.Name}
	}
	if _, err := mgr.SweepStreamed(SweepInside, 2, func(r HostResult) {
		n++
		if r.Err != "" {
			failed = r.Host + ": " + r.Err
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("sweep lost results: %d of 4", n)
	}
	if !strings.Contains(failed, "host-002") || !strings.Contains(failed, "disk on fire") {
		t.Fatalf("panic not captured per-host: %q", failed)
	}
}

// TestSweepStreamDeliversAllHosts: the streamed sweep's sink receives
// every host exactly once.
func TestSweepStreamDeliversAllHosts(t *testing.T) {
	mgr := buildFleet(t, 3, map[int]ghostware.Ghostware{2: ghostware.NewVanquish()})
	seen := map[string]int{}
	infected := 0
	if _, err := mgr.SweepStreamed(SweepInside, 4, func(r HostResult) {
		seen[r.Host]++
		if r.Infected {
			infected++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("stream delivered %d hosts, want 3", len(seen))
	}
	for h, n := range seen {
		if n != 1 {
			t.Errorf("host %s delivered %d times", h, n)
		}
	}
	if infected != 1 {
		t.Errorf("infected = %d, want 1", infected)
	}
}

// TestWarmSweepCostsLessVirtualTime: the second inside sweep of an
// unchanged fleet replaces the MFT and hive reparses with verify
// passes. The high-level API scans still re-run at full (dominant,
// seek-bound) virtual cost — the cache must charge strictly less, never
// more, and the verdicts must not drift.
func TestWarmSweepCostsLessVirtualTime(t *testing.T) {
	mgr := buildFleet(t, 3, map[int]ghostware.Ghostware{1: ghostware.NewHackerDefender()})
	cold := sweepResults(t, mgr, SweepInside, 1)
	warm := sweepResults(t, mgr, SweepInside, 1)
	for i := range cold {
		if warm[i].Infected != cold[i].Infected || warm[i].Hidden != cold[i].Hidden {
			t.Errorf("host %s verdict drifted between sweeps", cold[i].Host)
		}
		if warm[i].Elapsed >= cold[i].Elapsed {
			t.Errorf("host %s: warm sweep %v vs cold %v — cache not engaged",
				cold[i].Host, warm[i].Elapsed, cold[i].Elapsed)
		}
	}
}

// TestEmptyFleetSweeps: scheduling over zero hosts terminates cleanly.
func TestEmptyFleetSweeps(t *testing.T) {
	mgr := NewManager()
	if got := sweepResults(t, mgr, SweepInside, 0); len(got) != 0 {
		t.Fatalf("results = %v", got)
	}
	if got := sweepResults(t, mgr, SweepOutside, 1); len(got) != 0 {
		t.Fatalf("results = %v", got)
	}
}

// TestParallelOutsideSweepMatchesSequential: the outside flow goes
// through the same scheduler.
func TestParallelOutsideSweepMatchesSequential(t *testing.T) {
	build := func() *Manager {
		return buildFleet(t, 3, map[int]ghostware.Ghostware{0: ghostware.NewVanquish()})
	}
	seq := sweepResults(t, build(), SweepOutside, 1)
	par := sweepResults(t, build(), SweepOutside, 4)
	for i := range seq {
		if seq[i].Host != par[i].Host || seq[i].Infected != par[i].Infected {
			t.Errorf("host %s: seq inf=%v vs par inf=%v", seq[i].Host, seq[i].Infected, par[i].Infected)
		}
		if par[i].Kind != SweepOutside {
			t.Errorf("host %s: kind = %q", par[i].Host, par[i].Kind)
		}
	}
}

// TestHostParallelismSweepMatchesSequential pins the intra-host fan-out
// plumbing: a sweep with HostParallelism set must classify the fleet
// exactly like the per-host sequential sweep.
func TestHostParallelismSweepMatchesSequential(t *testing.T) {
	infections := map[int]ghostware.Ghostware{1: ghostware.NewHackerDefender()}
	wantInfected, _ := verdicts(sweepResults(t, buildFleet(t, 3, infections), SweepInside, 1))

	mgr := buildFleet(t, 3, infections)
	mgr.HostParallelism = 4
	results := sweepResults(t, mgr, SweepInside, 2)
	infected, errs := verdicts(results)
	if len(errs) != 0 {
		t.Fatalf("errors = %v", errs)
	}
	if fmt.Sprint(infected) != fmt.Sprint(wantInfected) {
		t.Errorf("parallel-host infected %v != sequential %v", infected, wantInfected)
	}
	for _, r := range results {
		if len(r.Reports) != 4 {
			t.Errorf("%s: reports = %d", r.Host, len(r.Reports))
		}
	}
}
