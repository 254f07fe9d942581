package fleet

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The entry-point × option matrix: every fleet sweep entry point runs
// through the one scan loop, so every Manager option must take effect in
// every entry point, and options that cannot change a verdict must leave
// the per-host result hashes and the sealed digests exactly where a plain
// sweep puts them.

const (
	matrixHosts   = 12
	matrixWorkers = 3
	// matrixCut is how many committed hosts the resume entry points find
	// in their journal; the hosts an option acts on sit well past it (the
	// scheduler pipelines, so the host after the cut may be dangling).
	matrixCut = 3
)

var (
	matrixVictim = hostName(matrixHosts - 1) // hedge straggler, cancel gate
	matrixBad    = hostName(6)               // breaker and abort failures
	matrixBad2   = hostName(7)               // second abort failure
	matrixFlaky  = hostName(8)               // fails its first attempt only
)

// matrixFixture is one cell's fleet plus what the cell observes.
type matrixFixture struct {
	mgr    *Manager
	mu     sync.Mutex
	scans  map[string]int        // ScanHost calls per host
	seen   map[string]HostResult // sink deliveries per host (last wins)
	counts map[string]int        // sink deliveries per host
	gauge  *ResidentGauge
	cancel chan struct{}
	gate   chan struct{}
}

func (f *matrixFixture) sink(res HostResult) {
	f.mu.Lock()
	f.seen[res.Host] = res
	f.counts[res.Host]++
	f.mu.Unlock()
}

func (f *matrixFixture) scanned(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.scans[name]
}

// matrixOutcome is what one entry point returned.
type matrixOutcome struct {
	rep *Report
	sum *SweepSummary
}

// notScanned reports the unvisited-host count, from whichever outcome.
func (o matrixOutcome) notScanned() int {
	if o.rep != nil {
		return len(o.rep.NotScanned)
	}
	return o.sum.NotScanned
}

type matrixEntry struct {
	name   string
	resume bool // runs from a journal cut after matrixCut commits
	run    func(mgr *Manager, path string, sink func(HostResult)) (matrixOutcome, error)
}

var matrixEntries = []matrixEntry{
	{"SweepStreamed", false, func(mgr *Manager, _ string, sink func(HostResult)) (matrixOutcome, error) {
		sum, err := mgr.SweepStreamed(SweepInside, matrixWorkers, sink)
		return matrixOutcome{sum: sum}, err
	}},
	{"SweepJournaled", false, func(mgr *Manager, path string, sink func(HostResult)) (matrixOutcome, error) {
		rep, err := mgr.SweepJournaled(SweepInside, matrixWorkers, path, sink)
		return matrixOutcome{rep: rep}, err
	}},
	{"SweepJournaledStream", false, func(mgr *Manager, path string, sink func(HostResult)) (matrixOutcome, error) {
		sum, err := mgr.SweepJournaledStream(SweepInside, matrixWorkers, path, sink)
		return matrixOutcome{sum: sum}, err
	}},
	{"Resume", true, func(mgr *Manager, path string, sink func(HostResult)) (matrixOutcome, error) {
		rep, err := mgr.Resume(SweepInside, matrixWorkers, path, sink)
		return matrixOutcome{rep: rep}, err
	}},
	{"ResumeStream", true, func(mgr *Manager, path string, sink func(HostResult)) (matrixOutcome, error) {
		sum, err := mgr.ResumeStream(SweepInside, matrixWorkers, path, sink)
		return matrixOutcome{sum: sum}, err
	}},
}

// matrixOption configures a cell's manager and checks that the option
// took effect. verdictFree options may not move any result hash or digest
// away from the plain sweep's; deterministic ones reach the same hashes
// and digests in every entry point.
type matrixOption struct {
	name          string
	verdictFree   bool
	deterministic bool
	setup         func(f *matrixFixture, body func(*Host, SweepKind) HostResult) func(*Host, SweepKind) HostResult
	check         func(t *testing.T, f *matrixFixture, out matrixOutcome)
}

var matrixOptions = []matrixOption{
	{name: "plain", verdictFree: true, deterministic: true},
	{
		name: "sink", verdictFree: true, deterministic: true,
		check: func(t *testing.T, f *matrixFixture, out matrixOutcome) {
			// Every host, replayed or scanned, reaches the sink exactly once.
			if len(f.counts) != matrixHosts {
				t.Errorf("sink saw %d hosts, want %d", len(f.counts), matrixHosts)
			}
			for h, n := range f.counts {
				if n != 1 {
					t.Errorf("sink saw %s %d times", h, n)
				}
			}
			if out.rep != nil {
				for _, hr := range out.rep.Results {
					if f.seen[hr.Host].Hash != hr.Hash {
						t.Errorf("sink and report disagree on %s", hr.Host)
					}
				}
			}
		},
	},
	{
		name: "Hedge", verdictFree: true, deterministic: true,
		setup: func(f *matrixFixture, body func(*Host, SweepKind) HostResult) func(*Host, SweepKind) HostResult {
			f.mgr.Hedge = testHedge()
			return stragglerBody(matrixVictim, 400*time.Millisecond)
		},
		check: func(t *testing.T, f *matrixFixture, out matrixOutcome) {
			if n := f.scanned(matrixVictim); n < 2 {
				t.Errorf("straggler scanned %d time(s); a hedge launches a duplicate", n)
			}
			if out.sum != nil && (out.sum.Hedged == 0 || out.sum.HedgeWins == 0) {
				t.Errorf("summary hedged %d, wins %d; want both > 0", out.sum.Hedged, out.sum.HedgeWins)
			}
		},
	},
	{
		name: "Cancel",
		setup: func(f *matrixFixture, body func(*Host, SweepKind) HostResult) func(*Host, SweepKind) HostResult {
			// The victim's scan parks on the gate, so the sweep cannot
			// outrun the cancel the second sink delivery fires. Without a
			// working Cancel the gate's timeout ends the park.
			f.cancel = make(chan struct{})
			f.gate = make(chan struct{})
			f.mgr.Cancel = f.cancel
			return func(h *Host, kind SweepKind) HostResult {
				if h.Name == matrixVictim {
					select {
					case <-f.gate:
					case <-time.After(2 * time.Second):
					}
				}
				return body(h, kind)
			}
		},
		check: func(t *testing.T, f *matrixFixture, out matrixOutcome) {
			if _, ok := f.seen[matrixVictim]; ok {
				t.Errorf("parked host %s committed despite the cancel", matrixVictim)
			}
			if out.notScanned() == 0 {
				t.Error("cancelled sweep claims every host scanned")
			}
			if out.rep != nil && len(out.rep.Results)+len(out.rep.NotScanned) != matrixHosts {
				t.Errorf("results %d + notScanned %d != %d", len(out.rep.Results), len(out.rep.NotScanned), matrixHosts)
			}
			if out.sum != nil && (!out.sum.Interrupted || out.sum.Scanned+out.sum.NotScanned != matrixHosts) {
				t.Errorf("summary interrupted=%v scanned %d + notScanned %d", out.sum.Interrupted, out.sum.Scanned, out.sum.NotScanned)
			}
		},
	},
	{
		name: "BreakerThreshold", deterministic: true,
		setup: func(f *matrixFixture, body func(*Host, SweepKind) HostResult) func(*Host, SweepKind) HostResult {
			f.mgr.MaxRetries = 5
			f.mgr.BreakerThreshold = 2
			return func(h *Host, kind SweepKind) HostResult {
				if h.Name == matrixBad {
					return HostResult{Host: h.Name, Kind: kind, Err: "disk on fire"}
				}
				return body(h, kind)
			}
		},
		check: func(t *testing.T, f *matrixFixture, out matrixOutcome) {
			if r := f.seen[matrixBad]; !r.Quarantined || r.Attempts != 2 {
				t.Errorf("broken host quarantined=%v after %d attempts; want the breaker open at 2", r.Quarantined, r.Attempts)
			}
			if out.rep != nil && fmt.Sprint(out.rep.Quarantined) != fmt.Sprint([]string{matrixBad}) {
				t.Errorf("report quarantined = %v", out.rep.Quarantined)
			}
			if out.sum != nil && out.sum.Quarantined != 1 {
				t.Errorf("summary quarantined = %d", out.sum.Quarantined)
			}
		},
	},
	{
		name: "AbortAfterFailureFraction",
		setup: func(f *matrixFixture, body func(*Host, SweepKind) HostResult) func(*Host, SweepKind) HostResult {
			f.mgr.AbortAfterFailureFraction = 0.1 // the second failure of 12 exceeds it
			return func(h *Host, kind SweepKind) HostResult {
				if h.Name == matrixBad || h.Name == matrixBad2 {
					return HostResult{Host: h.Name, Kind: kind, Err: "disk on fire"}
				}
				return body(h, kind)
			}
		},
		check: func(t *testing.T, f *matrixFixture, out matrixOutcome) {
			aborted, reason := false, ""
			if out.rep != nil {
				aborted, reason = out.rep.Aborted, out.rep.AbortReason
				if len(out.rep.Results)+len(out.rep.NotScanned) != matrixHosts {
					t.Errorf("results %d + notScanned %d != %d", len(out.rep.Results), len(out.rep.NotScanned), matrixHosts)
				}
			} else {
				aborted, reason = out.sum.Aborted, out.sum.AbortReason
			}
			if !aborted || !strings.Contains(reason, "error budget") {
				t.Errorf("sweep not aborted by the error budget: aborted=%v reason=%q", aborted, reason)
			}
		},
	},
	{
		name: "Resident", verdictFree: true, deterministic: true,
		setup: func(f *matrixFixture, body func(*Host, SweepKind) HostResult) func(*Host, SweepKind) HostResult {
			f.gauge = &ResidentGauge{}
			f.mgr.Resident = f.gauge
			return body
		},
		check: func(t *testing.T, f *matrixFixture, out matrixOutcome) {
			if p := f.gauge.Peak(); p < 1 || p > matrixWorkers+1 {
				t.Errorf("resident peak %d, want within [1, %d]", p, matrixWorkers+1)
			}
			if cur := f.gauge.cur.Load(); cur != 0 {
				t.Errorf("gauge not drained: %d still resident", cur)
			}
		},
	},
	{
		name: "BackoffJitterSeed", verdictFree: true, deterministic: true,
		setup: func(f *matrixFixture, body func(*Host, SweepKind) HostResult) func(*Host, SweepKind) HostResult {
			f.mgr.MaxRetries = 2
			f.mgr.RetryBackoff = 2 * time.Second
			f.mgr.BackoffJitterSeed = 99
			var failed atomic.Bool
			return func(h *Host, kind SweepKind) HostResult {
				if h.Name == matrixFlaky && failed.CompareAndSwap(false, true) {
					return HostResult{Host: h.Name, Kind: kind, Err: "transient: io"}
				}
				return body(h, kind)
			}
		},
		check: func(t *testing.T, f *matrixFixture, out matrixOutcome) {
			r := f.seen[matrixFlaky]
			want := JitteredBackoff(2*time.Second, 99, backoffTag(matrixFlaky), 1)
			if r.Err != "" || r.Attempts != 2 || r.RetryNs != want || want == 2*time.Second {
				t.Errorf("flaky host err=%q attempts=%d retryNs=%v; want a clean retry after the jittered wait %v",
					r.Err, r.Attempts, r.RetryNs, want)
			}
		},
	},
}

// matrixJournal writes a plain journaled sweep and cuts it after
// matrixCut commits: the crash point the resume entry points start from.
func matrixJournal(t *testing.T, path string) {
	t.Helper()
	ref := NewManager()
	addSynthetic(ref, matrixHosts)
	ref.ScanHost = syntheticBody
	if _, err := ref.SweepJournaledStream(SweepInside, 1, path, nil); err != nil {
		t.Fatal(err)
	}
	truncateAfterCommits(t, path, matrixCut, false)
}

// TestEntryPointOptionMatrix runs every option through every sweep entry
// point and checks the option took effect there, then checks that the
// entry points agree: per-host hashes everywhere, the Report digest
// between SweepJournaled and Resume, and the summary digest across the
// stream entry points.
func TestEntryPointOptionMatrix(t *testing.T) {
	type cell struct {
		hashes map[string]string
		out    matrixOutcome
	}
	cells := map[string]map[string]cell{} // option → entry → cell
	for _, opt := range matrixOptions {
		cells[opt.name] = map[string]cell{}
		for _, ep := range matrixEntries {
			t.Run(opt.name+"/"+ep.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "sweep.gbj")
				if ep.resume {
					matrixJournal(t, path)
				}
				f := &matrixFixture{
					mgr:    NewManager(),
					scans:  map[string]int{},
					seen:   map[string]HostResult{},
					counts: map[string]int{},
				}
				addSynthetic(f.mgr, matrixHosts)
				body := syntheticBody
				if opt.setup != nil {
					body = opt.setup(f, body)
				}
				f.mgr.ScanHost = func(h *Host, kind SweepKind) HostResult {
					f.mu.Lock()
					f.scans[h.Name]++
					f.mu.Unlock()
					return body(h, kind)
				}
				sink := f.sink
				if f.cancel != nil {
					var once sync.Once
					sink = func(res HostResult) {
						f.sink(res)
						if len(f.counts) == 2 {
							once.Do(func() { close(f.cancel) })
						}
					}
				}
				out, err := ep.run(f.mgr, path, sink)
				if f.gate != nil {
					close(f.gate)
				}
				if err != nil {
					t.Fatal(err)
				}
				if out.rep != nil {
					if err := out.rep.Verify(); err != nil {
						t.Errorf("report fails verification: %v", err)
					}
					if ep.resume && len(out.rep.Replayed) != matrixCut {
						t.Errorf("replayed %v, want the %d committed hosts", out.rep.Replayed, matrixCut)
					}
				} else {
					if err := out.sum.VerifyDigest(); err != nil {
						t.Errorf("summary fails its seal: %v", err)
					}
					if ep.resume && out.sum.Replayed != matrixCut {
						t.Errorf("replayed %d, want the %d committed hosts", out.sum.Replayed, matrixCut)
					}
				}
				if opt.check != nil {
					opt.check(t, f, out)
				}
				hashes := map[string]string{}
				for h, r := range f.seen {
					hashes[h] = r.Hash
				}
				cells[opt.name][ep.name] = cell{hashes: hashes, out: out}
			})
		}
	}

	plain := cells["plain"]["SweepJournaled"]
	for _, opt := range matrixOptions {
		if !opt.deterministic {
			continue
		}
		row := cells[opt.name]
		ref, ok := row["SweepJournaled"]
		if !ok {
			continue // the cell failed and already reported why
		}
		for _, ep := range matrixEntries {
			c, ok := row[ep.name]
			if !ok {
				continue
			}
			if fmt.Sprint(c.hashes) != fmt.Sprint(ref.hashes) {
				t.Errorf("%s: %s result hashes differ from SweepJournaled's", opt.name, ep.name)
			}
		}
		if r := row["Resume"]; r.out.rep != nil && r.out.rep.Digest != ref.out.rep.Digest {
			t.Errorf("%s: Resume digest %.12s != SweepJournaled %.12s", opt.name, r.out.rep.Digest, ref.out.rep.Digest)
		}
		streams := []string{"SweepStreamed", "SweepJournaledStream", "ResumeStream"}
		var want string
		for _, name := range streams {
			c, ok := row[name]
			if !ok {
				continue
			}
			if want == "" {
				want = c.out.sum.Digest
			} else if c.out.sum.Digest != want {
				t.Errorf("%s: %s summary digest %.12s != %.12s", opt.name, name, c.out.sum.Digest, want)
			}
		}
		if opt.verdictFree && plain.out.rep != nil {
			if fmt.Sprint(ref.hashes) != fmt.Sprint(plain.hashes) {
				t.Errorf("%s moved result hashes away from the plain sweep's", opt.name)
			}
			if ref.out.rep.Digest != plain.out.rep.Digest {
				t.Errorf("%s moved the report digest away from the plain sweep's", opt.name)
			}
			if s := row["SweepStreamed"].out.sum; s != nil && s.Digest != cells["plain"]["SweepStreamed"].out.sum.Digest {
				t.Errorf("%s moved the summary digest away from the plain sweep's", opt.name)
			}
		}
	}
}
