package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/ghostfuzz"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/hive"
	"ghostbuster/internal/kernel"
	"ghostbuster/internal/kmem"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/ntfs"
	"ghostbuster/internal/profile"
	"ghostbuster/internal/winapi"
	"ghostbuster/internal/workload"
)

// paperHost is one infected paper-fleet host with its detector.
type paperHost struct {
	m    *machine.Machine
	d    *core.Detector
	want expectation
}

// paperProfile is the host shape of both host workloads: the paper's
// corp-4 desktop (34 GB used) with its MFT sized like a real disk (32k
// records of headroom, as BenchmarkInsideSweep does). The seed varies
// the population layout and the ghostware, not the disk size, so runs
// with different seeds measure nearly the same amount of work; the
// larger population keeps a seed's decoy files a small share of it.
func paperProfile(seed int64) machine.Profile {
	p := workload.PaperMachines()[3]
	p.Churn = nil
	p.MFTHeadroom = 32768
	p.Seed = int64(mix(uint64(seed)))
	return p
}

// mix is the splitmix64 finalizer: derives independent sub-seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// latticeKinds is the number of atom kinds ghostfuzz.Generate draws
// from (every AtomKind except AtomEvasive).
const latticeKinds = 12

// composite builds the seeded ghostware number k of a run: one atom of
// every kind in the ghostfuzz lattice, each the first atom of its kind
// in the seed's stream of ghostfuzz.Generate specs. The seed draws each
// atom's interception level, scope and count. A single generated spec
// holds 1-4 atoms of random kinds, and the number of API hooks alone
// would move a scan's cost by a fifth from one seed to the next; one
// atom per kind keeps runs on different seeds comparable, and every
// scan-unit pair has something to find.
func composite(seed int64, k int) *ghostware.Composite {
	var atoms []ghostware.Atom
	seen := map[ghostware.AtomKind]bool{}
	for j := 0; len(seen) < latticeKinds && j < 1000; j++ {
		for _, a := range ghostfuzz.Generate(ghostfuzz.CaseSeed(seed, k*1000+j)).Atoms {
			if !seen[a.Kind] {
				seen[a.Kind] = true
				atoms = append(atoms, a)
			}
		}
	}
	return ghostware.NewComposite(fmt.Sprintf("pb%d", k), atoms)
}

// paranoid is the scan profile of the host and fleet workloads: every
// scan-unit pair runs.
func paranoid() profile.Profile {
	p, ok := profile.Builtin("paranoid")
	if !ok {
		panic("perfbench: no built-in paranoid profile")
	}
	return p
}

func buildPaperHost(seed int64) (*paperHost, error) {
	m, err := workload.NewPaperMachine(paperProfile(seed))
	if err != nil {
		return nil, err
	}
	g := composite(seed, 0)
	if err := g.Install(m); err != nil {
		return nil, fmt.Errorf("installing %s: %w", g.Name(), err)
	}
	d := core.NewCachedDetector(m)
	paranoid().ConfigureDetector(d)
	if _, err := d.ScanAll(); err != nil { // prime the cache
		return nil, err
	}
	return &paperHost{m: m, d: d, want: expect(g)}, nil
}

// churner applies seeded benign mutations through the machine, Registry
// and kernel mutators. Names never contain a composite's hide tags
// ("GFZ..."), so the churn is visible in both views and must not change
// the verdict. Processes, Registry values and files cycle through fixed
// slots so the live population stays bounded.
type churner struct {
	seed  int64
	ready bool // churnKey exists
	pids  [8]uint64
	files [16]bool
}

const (
	churnKey = `HKLM\SOFTWARE\PerfBench\Churn`
	churnDir = `C:\perfbench\churn`
)

// batch applies mutation batch i: always one Registry value set and one
// process start or exit; every fourth batch also drops, appends to or
// removes a file, so most operations leave the volume untouched. The
// seed picks the value, process slot and file.
func (c *churner) batch(m *machine.Machine, i int) error {
	rng := rand.New(rand.NewSource(int64(mix(uint64(c.seed) ^ uint64(i)*0x9e3779b97f4a7c15))))
	if !c.ready {
		if err := m.Reg.CreateKey(churnKey); err != nil {
			return err
		}
		c.ready = true
	}
	if err := m.Reg.SetValue(churnKey, hive.DwordValue(fmt.Sprintf("v%02d", rng.Intn(32)), uint32(i))); err != nil {
		return err
	}
	slot := rng.Intn(len(c.pids))
	if pid := c.pids[slot]; pid != 0 {
		if err := m.Kern.ExitProcess(pid); err != nil {
			return err
		}
		c.pids[slot] = 0
	} else {
		name := fmt.Sprintf("pbwork%d.exe", slot)
		pid, err := m.StartProcess(name, `C:\WINDOWS\system32\`+name)
		if err != nil {
			return err
		}
		c.pids[slot] = pid
	}
	if i%4 != 3 {
		return nil
	}
	f := rng.Intn(len(c.files))
	path := fmt.Sprintf(`%s\pbfile%02d.dat`, churnDir, f)
	switch {
	case !c.files[f]:
		c.files[f] = true
		return m.DropFile(path, []byte("perfbench churn"))
	case rng.Intn(2) == 0:
		return m.AppendFile(path, []byte(" more"))
	default:
		c.files[f] = false
		return m.RemoveFile(path)
	}
}

// reportsVirtual sums the modelled scan time of one host scan.
func reportsVirtual(reps []*core.Report) time.Duration {
	var v time.Duration
	for _, rep := range reps {
		v += rep.Elapsed
	}
	return v
}

func digestOf(reps []*core.Report) string {
	var b strings.Builder
	for _, rep := range reps {
		b.WriteString(rep.Digest)
	}
	return b.String()
}

// virtualPrefix is how many leading operations virtual_scan_s averages:
// a fixed prefix keeps it a pure function of the seed.
const virtualPrefix = 64

// warmCycle is how many operations host-warm-churn runs on one host
// before rebuilding it. The kernel never frees a process's memory and
// its CID table grows with every pid, so a host under process churn
// gets slower with every operation; restarting from the same host every
// warmCycle operations makes every run measure the same operation mix,
// however many operations fit in its budget.
const warmCycle = 256

// minOps is the fewest operations a closed-loop run measures, so that
// latency_p90_ms has at least ten samples beyond it.
const minOps = 100

func runHost(r *runner, warm bool) error {
	var h *paperHost
	setupS, err := setupReps(setupRuns, func() { h = nil }, func() (err error) {
		h, err = buildPaperHost(r.seed)
		return err
	})
	if err != nil {
		return err
	}
	ch := &churner{seed: r.seed}
	hs := &hostSums{virt: map[string][]float64{}}
	var m meter
	var virt []float64
	var digest0 string
	// op runs operation i: cold drops the parse cache first; warm
	// applies mutation batch i first. tr/parent record spans when traced.
	op := func(i int, mt *meter, tr *tracer) error {
		if warm && i > 0 && i%warmCycle == 0 {
			// Untimed: start the next cycle from a freshly built host,
			// after the old one is collected.
			h = nil
			runtime.GC()
			var err error
			if h, err = buildPaperHost(r.seed); err != nil {
				return err
			}
			ch = &churner{seed: r.seed}
			runtime.GC()
		}
		var reps []*core.Report
		var scanErr, mutErr error
		cache0 := h.d.Cache.Stats()
		root := tr.begin("op", -1, i)
		mt.measure(func() {
			if warm {
				tr.do("machine.mutate", root, i, func() { mutErr = ch.batch(h.m, i%warmCycle) })
			} else {
				h.d.Cache.Invalidate()
			}
			tr.do("scan", root, i, func() { reps, scanErr = h.d.ScanAll() })
		})
		tr.end(root)
		if tr != nil {
			hs.countCache(cache0, h.d.Cache.Stats())
		}
		if mutErr != nil {
			return fmt.Errorf("churn batch %d: %w", i, mutErr)
		}
		failed := scanErr != nil || degraded(reps)
		n, why := 0, []string(nil)
		if scanErr == nil {
			n, why = mismatches(h.want, reps)
			if !warm {
				if digest0 == "" {
					digest0 = digestOf(reps)
					r.pin("host.report_digests", digest0)
				} else if d := digestOf(reps); d != digest0 {
					n++
					why = append(why, fmt.Sprintf("op %d: sealed report digests changed", i))
				}
			}
			if len(virt) < virtualPrefix {
				virt = append(virt, reportsVirtual(reps).Seconds())
			}
		}
		r.check(failed, n, why)
		if tr != nil && scanErr == nil {
			return hostProbe(r, h, hs, reps, i, warm)
		}
		return nil
	}
	if !r.traced {
		if _, err := closedLoop(r.seconds, minOps, 0, func(i int) error { return op(i, &m, nil) }); err != nil {
			return err
		}
		r.endToEnd(setupS, &m, 1, mean(virt))
		r.pin("virtual_scan_s", fmt.Sprintf("%.9f", mean(virt)))
		return nil
	}
	// Traced run: the traced half first (so the first traced operation
	// sees the same state on every run), then an untraced half for the
	// overhead comparison.
	var traced meter
	next, err := closedLoop(r.seconds/2, minOps/4, 0, func(i int) error { return op(i, &traced, r.tr) })
	if err != nil {
		return err
	}
	if _, err := closedLoop(r.seconds/2, minOps/4, next, func(i int) error { return op(i, &m, nil) }); err != nil {
		return err
	}
	hostLayers(r, hs)
	r.set("trace.coverage", r.tr.coverage("scan", "layers"), "ratio")
	r.set("trace.overhead", median(traced.lat)/median(m.lat)-1, "ratio")
	if warm {
		r.set("machine.mutate_us", median(r.tr.durations("machine.mutate"))/1e3, "us")
	} else if err := mutateProbe(r, h.m, r.seed); err != nil {
		return err
	}
	if err := fleetProbe(r); err != nil {
		return err
	}
	return daemonProbe(r)
}

// countingReader counts every kernel-memory read a walk makes.
type countingReader struct {
	r kmem.Reader
	n int64
}

func (c *countingReader) ReadU64(a uint64) (uint64, error) { c.n++; return c.r.ReadU64(a) }
func (c *countingReader) ReadU32(a uint64) (uint32, error) { c.n++; return c.r.ReadU32(a) }
func (c *countingReader) ReadBytes(a uint64, n int) ([]byte, error) {
	c.n++
	return c.r.ReadBytes(a, n)
}
func (c *countingReader) ReadCString(a uint64, n int) (string, error) {
	c.n++
	return c.r.ReadCString(a, n)
}

// hostSums accumulates the host layer probes over the traced operations.
type hostSums struct {
	ops                                      int
	rawscan, parse, cid, apl, mods, carve    []float64
	callas, filesH, asepH, procsH, modsH     []float64
	unitF, unitA, unitP, unitM, residual     []float64
	snap, diff, seal                         []float64
	ntfsAllocs, hiveAllocs, kmemReads, kmemT []float64
	virt                                     map[string][]float64
	hits, misses                             int // parse cache, during the operations
	// counts of the first probe, pinned by the determinism check
	records, keys, values int
}

// countCache adds one operation's parse-cache hits and misses.
func (hs *hostSums) countCache(before, after core.CacheStats) {
	hs.hits += after.Hits - before.Hits
	hs.misses += after.Misses - before.Misses
}

// hostProbe times each host layer by calling its public function once,
// right after traced operation i, on the same host and cache state. The
// layer calls hang under a "layers" span so trace.coverage compares
// their self time with the operation's; the per-unit detector calls hang
// under "units" and are not counted there (they contain the same work).
func hostProbe(r *runner, h *paperHost, hs *hostSums, reps []*core.Report, i int, warm bool) error {
	tr, m := r.tr, h.m
	hs.ops++
	for _, rep := range reps {
		name := vtimeName(rep)
		hs.virt[name] = append(hs.virt[name], ms(rep.Elapsed))
	}
	layers := tr.begin("layers", -1, i)
	defer tr.end(layers)
	var err error
	var call *winapi.Call
	hs.callas = append(hs.callas, us(tr.do("machine.callas", layers, i, func() { call = m.SystemCall() })))

	var fH, aH, pH, mH *core.Snapshot
	var pids []uint64
	cr := &countingReader{r: m.Kern.ScanMem()}
	layout := m.Kern.Layout()
	var procs []kernel.ProcView
	kt := tr.do("kernel.cid_walk", layers, i, func() { procs, err = kernel.WalkCidProcesses(cr, layout) })
	if err != nil {
		return err
	}
	hs.cid = append(hs.cid, us(kt))
	for _, p := range procs {
		pids = append(pids, p.Pid)
	}
	d := tr.do("kernel.apl_walk", layers, i, func() { _, err = kernel.WalkActiveProcessList(cr, layout) })
	hs.apl, kt = append(hs.apl, us(d)), kt+d
	d = tr.do("kernel.module_walk", layers, i, func() {
		for _, p := range procs {
			if _, e := kernel.ProcessVadImages(cr, p.Addr); e != nil && err == nil {
				err = e
			}
		}
	})
	hs.mods, kt = append(hs.mods, us(d)), kt+d
	d = tr.do("kernel.carve", layers, i, func() { _, err = kernel.CarveProcesses(cr, m.Kern.Mem.Size()) })
	hs.carve, kt = append(hs.carve, ms(d)), kt+d
	if err != nil {
		return err
	}
	hs.kmemReads = append(hs.kmemReads, float64(cr.n))
	hs.kmemT = append(hs.kmemT, float64(kt)/float64(cr.n))
	if hs.ops == 1 {
		r.pin("kmem.reads_per_scan", cr.n)
	}

	var stats ntfs.RawScanStats
	a0 := mallocs()
	d = tr.do("ntfs.rawscan", layers, i, func() {
		err = m.Disk.WithDevice(func(dev []byte) (e error) {
			_, stats, e = ntfs.RawScanParallel(dev, 1)
			return e
		})
	})
	if err != nil {
		return err
	}
	hs.ntfsAllocs = append(hs.ntfsAllocs, float64(mallocs()-a0))
	hs.rawscan = append(hs.rawscan, ms(d))
	if hs.ops == 1 {
		hs.records = stats.RecordsParsed
		r.pin("ntfs.records", hs.records)
	}

	var keys, values int
	a0 = mallocs()
	d = tr.do("hive.parse", layers, i, func() {
		for _, root := range m.Reg.Roots() {
			hv, ok := m.Reg.HiveAt(root)
			if !ok {
				continue
			}
			_, st, e := hive.ParseBorrowed(hv.Snapshot())
			if e != nil && err == nil {
				err = e
			}
			keys, values = keys+st.KeysParsed, values+st.ValuesParsed
		}
	})
	if err != nil {
		return err
	}
	hs.hiveAllocs = append(hs.hiveAllocs, float64(mallocs()-a0))
	hs.parse = append(hs.parse, ms(d))
	if hs.ops == 1 {
		hs.keys, hs.values = keys, values
		r.pin("hive.keys", keys)
		r.pin("hive.values", values)
	}

	fd := tr.do("winapi.files_high", layers, i, func() { fH, err = core.ScanFilesHigh(m, call) })
	ad := tr.do("winapi.asep_high", layers, i, func() {
		if err == nil {
			aH, err = core.ScanASEPHigh(m, call)
		}
	})
	pd := tr.do("winapi.procs_high", layers, i, func() {
		if err == nil {
			pH, err = core.ScanProcsHigh(m, call)
		}
	})
	md := tr.do("winapi.mods_high", layers, i, func() {
		if err == nil {
			mH, err = core.ScanModsHigh(m, call, pids)
		}
	})
	if err != nil {
		return err
	}
	hs.filesH, hs.asepH = append(hs.filesH, ms(fd)), append(hs.asepH, ms(ad))
	hs.procsH, hs.modsH = append(hs.procsH, us(pd)), append(hs.modsH, ms(md))

	// The truth-side snapshots for the diff probe: cached parses where
	// the detector has them, fresh kernel walks otherwise. Fetched under
	// "prep", outside the coverage sum.
	var fL, aL, pL, mL *core.Snapshot
	tr.do("prep", -1, i, func() {
		if fL, err = h.d.Cache.ScanFilesLow(); err != nil {
			return
		}
		if aL, err = h.d.Cache.ScanASEPLow(); err != nil {
			return
		}
		if pL, err = core.ScanProcsLow(m, true); err != nil {
			return
		}
		mL, err = core.ScanModsLow(m, pids)
	})
	if err != nil {
		return err
	}
	t := core.NewInternTable()
	var cols [8]*core.ColumnarSnapshot
	d = tr.do("core.snapshot_build", layers, i, func() {
		for j, s := range []*core.Snapshot{fH, fL, aH, aL, pH, pL, mH, mL} {
			cols[j] = core.SnapshotColumnar(s, t)
		}
	})
	hs.snap = append(hs.snap, us(d))
	var diffs [4]time.Duration
	dd := tr.do("core.diff", layers, i, func() {
		for j := 0; j < 4 && err == nil; j++ {
			t0 := time.Now()
			_, err = core.DiffColumnar(cols[2*j], cols[2*j+1], h.d.Opts)
			diffs[j] = time.Since(t0)
		}
	})
	if err != nil {
		return err
	}
	hs.diff = append(hs.diff, us(dd))
	d = tr.do("core.seal", layers, i, func() {
		for _, rep := range reps {
			_ = rep.ComputeDigest()
		}
	})
	hs.seal = append(hs.seal, us(d))

	// Per-unit detector calls, in the workload's cache state: cold drops
	// the cache before each so its low side reparses, as in the
	// operation.
	units := tr.begin("units", -1, i)
	unit := func(name string, f func() (*core.Report, error)) time.Duration {
		if !warm {
			h.d.Cache.Invalidate()
		}
		return tr.do(name, units, i, func() { _, err = f() })
	}
	uf := unit("core.files_unit", h.d.ScanFiles)
	ua := unit("core.aseps_unit", h.d.ScanASEPs)
	up := unit("core.procs_unit", h.d.ScanProcesses)
	um := unit("core.mods_unit", h.d.ScanModules)
	tr.end(units)
	if err != nil {
		return err
	}
	hs.unitF, hs.unitA, hs.unitP, hs.unitM = append(hs.unitF, ms(uf)), append(hs.unitA, ms(ua)), append(hs.unitP, ms(up)), append(hs.unitM, ms(um))
	// Residual: unit time not explained by its high, low and diff probes.
	// Warm lows of files and ASEPs are cache hits, left in the residual.
	lowF, lowA := time.Duration(0), time.Duration(0)
	if !warm {
		lowF = time.Duration(hs.rawscan[len(hs.rawscan)-1] * 1e6)
		lowA = time.Duration(hs.parse[len(hs.parse)-1] * 1e6)
	}
	lowP := time.Duration(hs.cid[len(hs.cid)-1] * 1e3)
	lowM := time.Duration(hs.mods[len(hs.mods)-1] * 1e3)
	res := (uf - fd - lowF - diffs[0]) + (ua - ad - lowA - diffs[1]) + (up - pd - lowP - diffs[2]) + (um - md - lowM - diffs[3])
	hs.residual = append(hs.residual, ms(res))
	return nil
}

// vtimeName maps a report to its vtime.<unit> metric stem.
func vtimeName(rep *core.Report) string {
	switch {
	case rep.Kind == core.KindFiles && rep.LowView == core.ViewRawRemovable:
		return "removable"
	case rep.Kind == core.KindProcesses && rep.LowView == core.ViewKernelCarve:
		return "kmem_carve"
	case rep.Kind == core.KindBootChain:
		return "boot_chain"
	case rep.Kind == core.KindASEPHooks:
		return "aseps"
	default:
		return strings.ToLower(rep.Kind.String())
	}
}

// hostLayers (re)sets the host layer metrics from the probes so far.
func hostLayers(r *runner, hs *hostSums) {
	r.set("ntfs.rawscan_ms", median(hs.rawscan), "ms")
	r.set("ntfs.records", float64(hs.records), "count")
	r.set("ntfs.ns_per_record", median(hs.rawscan)*1e6/float64(hs.records), "ns")
	r.set("ntfs.allocs_per_scan", median(hs.ntfsAllocs), "count")
	r.set("hive.parse_ms", median(hs.parse), "ms")
	r.set("hive.keys", float64(hs.keys), "count")
	r.set("hive.values", float64(hs.values), "count")
	r.set("hive.allocs_per_parse", median(hs.hiveAllocs), "count")
	r.set("kernel.cid_walk_us", median(hs.cid), "us")
	r.set("kernel.apl_walk_us", median(hs.apl), "us")
	r.set("kernel.module_walk_us", median(hs.mods), "us")
	r.set("kernel.carve_ms", median(hs.carve), "ms")
	r.set("kmem.reads_per_scan", median(hs.kmemReads), "count")
	r.set("kmem.ns_per_read", median(hs.kmemT), "ns")
	r.set("machine.callas_us", median(hs.callas), "us")
	r.set("winapi.files_high_ms", median(hs.filesH), "ms")
	r.set("winapi.asep_high_ms", median(hs.asepH), "ms")
	r.set("winapi.procs_high_us", median(hs.procsH), "us")
	r.set("winapi.mods_high_ms", median(hs.modsH), "ms")
	r.set("core.files_unit_ms", median(hs.unitF), "ms")
	r.set("core.aseps_unit_ms", median(hs.unitA), "ms")
	r.set("core.procs_unit_ms", median(hs.unitP), "ms")
	r.set("core.mods_unit_ms", median(hs.unitM), "ms")
	r.set("core.unit_residual_ms", median(hs.residual), "ms")
	r.set("core.snapshot_build_us", median(hs.snap), "us")
	r.set("core.diff_us", median(hs.diff), "us")
	r.set("core.seal_us", median(hs.seal), "us")
	ratio := 0.0
	if hs.hits+hs.misses > 0 {
		ratio = float64(hs.hits) / float64(hs.hits+hs.misses)
	}
	r.set("core.cache_hit_ratio", ratio, "ratio")
	for _, u := range []string{"files", "aseps", "processes", "modules", "kmem_carve", "boot_chain", "removable"} {
		r.set("vtime."+u+"_virtual_ms", median(hs.virt[u]), "ms")
	}
}

// hostLayerProbe fills the host layer metrics for workloads whose
// operation is not a single host scan: traced scans of one of their
// hosts with its own detector, cold (cache dropped) or warm.
func hostLayerProbe(r *runner, m *machine.Machine, want expectation, warm bool) error {
	d := core.NewCachedDetector(m)
	paranoid().ConfigureDetector(d)
	h := &paperHost{m: m, d: d, want: want}
	hs := &hostSums{virt: map[string][]float64{}}
	for i := 0; i < 20; i++ {
		if !warm {
			d.Cache.Invalidate()
		}
		var reps []*core.Report
		var err error
		cache0 := d.Cache.Stats()
		id := r.tr.begin("probe.op", -1, i)
		r.tr.do("probe.scan", id, i, func() { reps, err = d.ScanAll() })
		r.tr.end(id)
		hs.countCache(cache0, d.Cache.Stats())
		if err != nil {
			return err
		}
		n, why := mismatches(want, reps)
		r.check(degraded(reps), n, why)
		if err := hostProbe(r, h, hs, reps, i, warm); err != nil {
			return err
		}
	}
	hostLayers(r, hs)
	return nil
}

// mutateProbe times benign mutation batches on a host the workload does
// not otherwise mutate (after its measured operations are done).
func mutateProbe(r *runner, m *machine.Machine, seed int64) error {
	ch := &churner{seed: seed}
	var ts []float64
	for i := 0; i < 200; i++ {
		var err error
		ts = append(ts, us(r.tr.do("machine.mutate", -1, -1, func() { err = ch.batch(m, i) })))
		if err != nil {
			return err
		}
	}
	r.set("machine.mutate_us", median(ts), "us")
	return nil
}
