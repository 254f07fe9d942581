package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/fleetshard"
	"ghostbuster/internal/journal"
	"ghostbuster/internal/machine"
)

// Fleet workload shape: small pre-built hosts (the paperbench buildFleet
// shape, ~0.75 MB each), one in 64 infected with a seeded composite,
// swept by more shards than run at once so shards queue.
const (
	fleetHosts        = 128
	fleetShards       = 8
	fleetShardsAtOnce = 2
)

// smallHost builds a buildFleet-shaped host. Infected hosts get more
// MFT and cluster headroom: a decoy atom plants up to ~125 files.
func smallHost(seed int64, infected bool) (*machine.Machine, error) {
	p := machine.DefaultProfile()
	p.DiskUsedGB = 0.05
	p.Churn = nil
	p.Seed = seed
	p.MFTHeadroom, p.ClusterHeadroom = 64, 64
	if infected {
		p.MFTHeadroom, p.ClusterHeadroom = 512, 512
	}
	return machine.New(p)
}

// fleetSet is a pre-built fleet served to the shard coordinator. Build
// returns the resident machine; each sweep's shard managers wrap it in a
// fresh (cold) scan cache.
type fleetSet struct {
	names []string
	ms    []*machine.Machine
	want  map[string]expectation
}

func (s *fleetSet) Len() int                              { return len(s.names) }
func (s *fleetSet) Name(i int) string                     { return s.names[i] }
func (s *fleetSet) Build(i int) (*machine.Machine, error) { return s.ms[i], nil }

func buildFleetSet(seed int64, hosts int) (*fleetSet, error) {
	rng := rand.New(rand.NewSource(int64(mix(uint64(seed) + 1))))
	infect := map[int]bool{}
	for len(infect) < max(1, hosts/64) {
		infect[rng.Intn(hosts)] = true
	}
	s := &fleetSet{want: map[string]expectation{}}
	k := 1 // composite 0 belongs to the host workloads
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("host-%04d", i)
		m, err := smallHost(int64(mix(uint64(seed)^uint64(i+1))), infect[i])
		if err != nil {
			return nil, err
		}
		if infect[i] {
			g := composite(seed, k)
			k++
			if err := g.Install(m); err != nil {
				return nil, fmt.Errorf("installing %s on %s: %w", g.Name(), name, err)
			}
			s.want[name] = expect(g)
		}
		s.names = append(s.names, name)
		s.ms = append(s.ms, m)
	}
	return s, nil
}

// fleetRun sweeps one fleetSet repeatedly and checks every sweep.
type fleetRun struct {
	r      *runner
	prefix string // namespaces pinned values of a side probe
	set    *fleetSet
	byM    map[*machine.Machine]string
	digest string
	// modelled cost of the first sweep; every sweep is identical
	virtScanS, makespanS float64

	// per-sweep scratch, guarded by mu (shards commit concurrently)
	mu       sync.Mutex
	results  []fleet.HostResult
	shardEnd map[int]time.Time
	lastAt   map[int]time.Time
	started  map[string]time.Time
	accs     map[int]*fleet.Accumulator

	// traced sums
	hashUs, gapMs, foldUs, mergeUs, assignNs, skew, verifyMs, makespanMs []float64
	appendUs                                                             []float64
	retries, hedges, quarantined                                         float64
	jBytes, jRecs, jSyncs, peak                                          float64
}

func newFleetRun(r *runner, set *fleetSet) *fleetRun {
	f := &fleetRun{r: r, set: set, byM: map[*machine.Machine]string{}}
	for i, m := range set.ms {
		f.byM[m] = set.names[i]
	}
	return f
}

// sweep runs sweep i. tr non-nil records spans inside the operation:
// each host's scan (configure to commit), ResultHash and accumulator
// fold at commit, under one "op" span.
func (f *fleetRun) sweep(i int, m *meter, tr *tracer) error {
	dir := filepath.Join(f.r.work, fmt.Sprintf("sweep-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f.results = f.results[:0]
	f.shardEnd, f.lastAt, f.started = map[int]time.Time{}, map[int]time.Time{}, map[string]time.Time{}
	f.accs = map[int]*fleet.Accumulator{}
	prof := paranoid()
	root := -1
	var t0 time.Time
	cfg := fleetshard.Config{
		Shards:           fleetShards,
		ShardParallelism: fleetShardsAtOnce,
		ShardWorkers:     1,
		JournalDir:       dir,
		ConfigureDetector: func(d *core.Detector) {
			prof.ConfigureDetector(d)
			if tr != nil {
				f.mu.Lock()
				f.started[f.byM[d.M]] = time.Now()
				f.mu.Unlock()
			}
		},
		OnResult: func(shard int, res fleet.HostResult) {
			now := time.Now()
			f.mu.Lock()
			defer f.mu.Unlock()
			f.results = append(f.results, res)
			f.shardEnd[shard] = now
			if tr == nil {
				return
			}
			if s, ok := f.started[res.Host]; ok {
				tr.record("fleet.host_scan", root, i, s, now)
			}
			prev, ok := f.lastAt[shard]
			if !ok {
				prev = t0
			}
			f.gapMs = append(f.gapMs, ms(now.Sub(prev)))
			f.lastAt[shard] = now
			var h string
			f.hashUs = append(f.hashUs, us(tr.do("fleet.result_hash", root, i, func() { h = fleet.ResultHash(res) })))
			if h != res.Hash {
				f.r.problem("sweep %d: %s: result hash %s, journaled %s", i, res.Host, h, res.Hash)
			}
			acc := f.accs[shard]
			if acc == nil {
				acc = &fleet.Accumulator{}
				f.accs[shard] = acc
			}
			f.foldUs = append(f.foldUs, us(tr.do("fleetshard.fold", root, i, func() { acc.Fold(res.Host, h) })))
		},
	}
	c, err := fleetshard.New(cfg, f.set)
	if err != nil {
		return err
	}
	var rep *fleetshard.Report
	root = tr.begin("op", -1, i)
	m.measure(func() {
		t0 = time.Now()
		rep, err = c.Sweep()
	})
	tr.end(root)
	if err != nil {
		return fmt.Errorf("sweep %d: %w", i, err)
	}
	f.check(i, rep)
	if tr != nil {
		return f.traced(i, rep, dir, t0)
	}
	return nil
}

// check verifies one sweep: every host committed exactly once with no
// failure, degradation or quarantine, every verdict matches the planted
// truth, and the merged digest is the same on every sweep.
func (f *fleetRun) check(i int, rep *fleetshard.Report) {
	r := f.r
	failed := rep.Aborted || rep.Failed > 0 || rep.DegradedHosts > 0 || rep.QuarantinedHosts > 0 ||
		rep.Scanned != len(f.set.names) || len(f.results) != len(f.set.names)
	n, why := 0, []string(nil)
	for _, res := range f.results {
		if res.Err != "" || res.Degraded > 0 || res.Quarantined {
			failed = true
		}
		k, w := mismatches(f.set.want[res.Host], res.Reports)
		n += k
		for _, s := range w {
			why = append(why, res.Host+": "+s)
		}
	}
	if f.digest == "" {
		f.digest = rep.MergedDigest
		r.pin(f.prefix+"fleet.merged_digest", rep.MergedDigest)
		f.virtScanS = time.Duration(rep.VirtualNs).Seconds() / float64(rep.Hosts)
		f.makespanS = time.Duration(rep.MakespanNs).Seconds()
		r.pin(f.prefix+"virtual_makespan_s", fmt.Sprintf("%.9f", f.makespanS))
		r.pin(f.prefix+"virtual_scan_s", fmt.Sprintf("%.9f", f.virtScanS))
	} else if rep.MergedDigest != f.digest {
		n++
		why = append(why, fmt.Sprintf("sweep %d: merged digest changed", i))
	}
	r.check(failed, n, why)
}

// traced measures the fleet, journal and fleetshard layers after sweep i.
func (f *fleetRun) traced(i int, rep *fleetshard.Report, dir string, t0 time.Time) error {
	tr := f.r.tr
	var total fleet.Accumulator
	f.mergeUs = append(f.mergeUs, us(tr.do("fleetshard.merge", -1, i, func() {
		for _, a := range f.accs {
			total.Merge(*a)
		}
	})))
	if total.Sum() != rep.Acc.Sum() {
		f.r.problem("sweep %d: accumulator re-fold %s differs from the report's %s", i, total.Sum(), rep.Acc.Sum())
	}
	ring, err := fleetshard.NewRing(fleetShards, 0)
	if err != nil {
		return err
	}
	d := tr.do("fleetshard.ring_assign", -1, i, func() {
		for _, name := range f.set.names {
			ring.Assign(name)
		}
	})
	f.assignNs = append(f.assignNs, float64(d)/float64(len(f.set.names)))
	var ends []float64
	slowest := 0.0
	for _, e := range f.shardEnd {
		s := e.Sub(t0).Seconds()
		ends = append(ends, s)
		slowest = max(slowest, s)
	}
	f.skew = append(f.skew, slowest/mean(ends))
	var verr error
	f.verifyMs = append(f.verifyMs, ms(tr.do("fleetshard.verify", -1, i, func() {
		if verr = rep.Verify(); verr == nil {
			verr = rep.VerifyJournals(dir)
		}
	})))
	if verr != nil {
		f.r.problem("sweep %d: verify: %v", i, verr)
	}
	f.makespanMs = append(f.makespanMs, ms(time.Duration(rep.MakespanNs)))
	for _, res := range f.results {
		f.retries += float64(max(res.Attempts-1, 0))
	}
	for _, s := range rep.ShardResults {
		if s.Summary != nil {
			f.hedges += float64(s.Summary.Hedged)
		}
	}
	f.quarantined += float64(rep.QuarantinedHosts)
	// The peak depends on how shard commits interleave, so it is checked
	// against its bound rather than pinned.
	if bound := fleetShardsAtOnce * 2; rep.PeakResident > bound {
		f.r.problem("sweep %d: peak resident %d exceeds the bound %d", i, rep.PeakResident, bound)
	}
	f.peak = max(f.peak, float64(rep.PeakResident))
	return f.journals(i, dir)
}

// journals reads the sweep's own shard journals back and replays their
// records into a probe journal, timing each Append.
func (f *fleetRun) journals(i int, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.gbj"))
	if err != nil {
		return err
	}
	var recs []journal.Record
	var bytes int64
	for _, p := range paths {
		rs, torn, err := journal.Read(p)
		if err != nil || torn != 0 {
			return fmt.Errorf("reading journal %s: torn %d: %v", p, torn, err)
		}
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		bytes += st.Size()
		recs = append(recs, rs...)
	}
	syncs := 0
	for _, rec := range recs {
		if rec.State.Terminal() || rec.State == journal.StateSweep || rec.State == journal.StateAborted {
			syncs++
		}
	}
	hosts := float64(len(f.set.names))
	f.jBytes, f.jRecs, f.jSyncs = float64(bytes)/hosts, float64(len(recs))/hosts, float64(syncs)/hosts
	f.r.pin(f.prefix+"journal.records_per_host", fmt.Sprintf("%.6f", f.jRecs))
	f.r.pin(f.prefix+"journal.fsyncs_per_host", fmt.Sprintf("%.6f", f.jSyncs))
	j, err := journal.Create(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	for _, rec := range recs {
		var aerr error
		f.appendUs = append(f.appendUs, us(f.r.tr.do("journal.append", -1, i, func() { _, aerr = j.Append(rec) })))
		if aerr != nil {
			return aerr
		}
	}
	return nil
}

// layers sets the fleet, journal and fleetshard per-layer metrics.
func (f *fleetRun) layers() {
	r, sweeps := f.r, float64(len(f.skew))
	r.set("fleet.result_hash_us", median(f.hashUs), "us")
	r.set("fleet.commit_gap_ms", median(f.gapMs), "ms")
	r.set("fleet.retries", f.retries/sweeps, "count")
	r.set("fleet.hedges", f.hedges/sweeps, "count")
	r.set("fleet.quarantined", f.quarantined/sweeps, "count")
	r.set("journal.append_us_p50", quantile(f.appendUs, 0.5), "us")
	r.set("journal.append_us_p99", quantile(f.appendUs, 0.99), "us")
	r.set("journal.bytes_per_host", f.jBytes, "B")
	r.set("journal.records_per_host", f.jRecs, "count")
	r.set("journal.fsyncs_per_host", f.jSyncs, "count")
	r.set("fleetshard.fold_us", median(f.foldUs), "us")
	r.set("fleetshard.merge_us", median(f.mergeUs), "us")
	r.set("fleetshard.ring_assign_ns", median(f.assignNs), "ns")
	r.set("fleetshard.shard_skew", median(f.skew), "ratio")
	r.set("fleetshard.peak_resident", f.peak, "count")
	r.set("fleetshard.verify_ms", median(f.verifyMs), "ms")
	r.set("vtime.makespan_ms", median(f.makespanMs), "ms")
}

func runFleet(r *runner) error {
	var set *fleetSet
	setupS, err := setupReps(setupRuns, func() { set = nil }, func() (err error) {
		set, err = buildFleetSet(r.seed, fleetHosts)
		return err
	})
	if err != nil {
		return err
	}
	f := newFleetRun(r, set)
	var warm meter
	if err := f.sweep(-1, &warm, nil); err != nil { // first-touch warm-up, checked but not measured
		return err
	}
	var m meter
	if !r.traced {
		if _, err := closedLoop(r.seconds, minOps, 0, func(i int) error { return f.sweep(i, &m, nil) }); err != nil {
			return err
		}
		r.endToEnd(setupS, &m, float64(fleetHosts), f.virtScanS)
		r.note("%-28s %14.4f s", "virtual_makespan_s", f.makespanS)
		return nil
	}
	var traced meter
	next, err := closedLoop(r.seconds/2, minOps/4, 0, func(i int) error { return f.sweep(i, &traced, r.tr) })
	if err != nil {
		return err
	}
	if _, err := closedLoop(r.seconds/2, minOps/4, next, func(i int) error { return f.sweep(i, &m, nil) }); err != nil {
		return err
	}
	f.layers()
	r.set("trace.coverage", r.tr.coverage("op", "op"), "ratio")
	r.set("trace.overhead", median(traced.lat)/median(m.lat)-1, "ratio")
	// Host layers, on the first infected host with its own detector.
	for i, name := range set.names {
		if want, ok := set.want[name]; ok {
			if err := hostLayerProbe(r, set.ms[i], want, false); err != nil {
				return err
			}
			if err := mutateProbe(r, set.ms[i], r.seed); err != nil {
				return err
			}
			return daemonProbe(r)
		}
	}
	return fmt.Errorf("fleet has no infected host")
}

// fleetProbe fills the fleet, journal and fleetshard layer metrics for
// workloads that do not sweep a fleet: a few traced sweeps of a 16-host
// sharded fleet built from the same seed.
func fleetProbe(r *runner) error {
	set, err := buildFleetSet(r.seed, 16)
	if err != nil {
		return err
	}
	f := newFleetRun(r, set)
	f.prefix = "probe."
	var m meter
	for i := 0; i < 5; i++ {
		if err := f.sweep(1000+i, &m, r.tr); err != nil {
			return err
		}
	}
	f.layers()
	return nil
}
