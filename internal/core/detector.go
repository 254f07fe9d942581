package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ghostbuster/internal/machine"
	"ghostbuster/internal/vtime"
	"ghostbuster/internal/winapi"
)

// Detector is the inside-the-box GhostBuster tool: it runs paired
// high/low scans for each resource type on one machine and diffs them.
// Every option below holds for every scan method: each one runs rows of
// the same pair table through the same runner (see run).
type Detector struct {
	M *machine.Machine
	// Advanced selects the CID-table traversal for the process low scan
	// (needed against DKOM rootkits like FU; paper §4).
	Advanced bool
	// AsProcess overrides the identity the high-level scans run under
	// (default explorer.exe). The §5 DLL-injection extension runs the
	// same scans as every process in turn.
	AsProcess string
	// Diff tuning (noise filters apply to outside scans; inside scans
	// are expected to be clean).
	Opts DiffOptions
	// Cache, when set, memoizes the low-level (truth-side) parses across
	// repeated sweeps, keyed on the truth sources' mutation generations.
	// The high-level scans are never cached: they must re-traverse the
	// hookable API chain every sweep. Must be a cache built on M.
	Cache *ScanCache
	// Parallelism bounds how many scan units of one scan run
	// concurrently. ScanAll runs eight units (the high/low pair of each of
	// the four resource detections), up to fourteen with every
	// next-generation pair enabled; a single-pair scan runs two. Values
	// above the unit count are clamped. Zero or one keeps the inline
	// single-lane path. Reports are byte-identical either way: units are
	// statically assigned to virtual-time lanes, so per-scan charges
	// never depend on goroutine interleaving.
	Parallelism int
	// Contain turns on per-scan-unit error containment: a unit that
	// fails (or panics) no longer aborts the scan; its resource pair's
	// report records the loss in DegradedUnits and carries whatever the
	// surviving views support. Fleet sweeps and chaos runs set this; the
	// default (off) preserves strict fail-fast semantics.
	Contain bool
	// Deadline, when positive, bounds one scan run in virtual time.
	// Units not yet started when the budget is exhausted are abandoned:
	// degraded under Contain, an error otherwise.
	Deadline time.Duration
	// Cancel, when non-nil, is an external abort seam checked at every
	// unit boundary: once the channel closes, units not yet started are
	// abandoned (degraded under Contain, an error otherwise), exactly
	// like a spent Deadline but on a wall-clock trigger. A unit already
	// inside a wedged read is not interrupted — the watchdog layer
	// abandons the whole scan instead, the same way an OS cannot unstick
	// a D-state thread.
	Cancel <-chan struct{}
	// OnReport, when set, receives each report as soon as it is
	// assembled. Fleet sweeps use it to retain partial results when a
	// later unit panics or the host scan is cut short.
	OnReport func(*Report)
	// Units enables next-generation scan units beyond the paper's eight
	// (see nextgen.go). Their reports follow the paper's four, in
	// UnitCrossMem, UnitBootChain, UnitRemovable order.
	Units UnitSet
	// OrderSeed, when nonzero, permutes the EXECUTION order of the scan
	// units (Fisher-Yates keyed on the seed). Report order and content
	// are unchanged for honest machines — but adaptive ghostware that
	// watches for scan-shaped API traffic and unhides mid-sweep can only
	// win against a predictable order, so randomized sweeps deny it the
	// timing oracle. Zero keeps the paper's fixed order.
	OrderSeed int64

	// intern is the detector's string-interning table: every snapshot the
	// detector builds indexes it, so the two sides of each diff share
	// symbols and the merge-join engine applies. Lazily created; when
	// Cache is set the cache's table is used instead (cached snapshots
	// must outlive any one sweep's table).
	intern *InternTable
}

// NewDetector builds a detector with default settings on m: inside-the-
// box scans with only the baseline noise filters (benign ADS markers).
func NewDetector(m *machine.Machine) *Detector {
	return &Detector{M: m, Opts: DiffOptions{NoiseFilters: BaselineNoiseFilters()}}
}

// NewCachedDetector builds a detector like NewDetector but with an
// incremental-scan cache attached — the configuration a fleet's daily
// sweep loop uses.
func NewCachedDetector(m *machine.Machine) *Detector {
	d := NewDetector(m)
	d.Cache = NewScanCache(m)
	return d
}

// table returns the interning table all of this detector's snapshots
// share. Not safe to call first from concurrent goroutines — the runner
// resolves it once before forking lanes.
func (d *Detector) table() *InternTable {
	if d.Cache != nil {
		return d.Cache.table()
	}
	if d.intern == nil {
		d.intern = NewInternTable()
	}
	return d.intern
}

// ScanFiles runs the inside-the-box hidden-file detection (§2).
func (d *Detector) ScanFiles() (*Report, error) { return d.scanPair(pairFiles) }

// ScanASEPs runs the inside-the-box hidden-Registry detection (§3).
func (d *Detector) ScanASEPs() (*Report, error) { return d.scanPair(pairASEPs) }

// ScanProcesses runs the inside-the-box hidden-process detection (§4).
func (d *Detector) ScanProcesses() (*Report, error) { return d.scanPair(pairProcs) }

// ScanModules runs the inside-the-box hidden-module detection (§4). The
// pid set comes from the kernel truth so hidden processes' modules are
// covered.
func (d *Detector) ScanModules() (*Report, error) { return d.scanPair(pairMods) }

// ScanDrivers diffs the driver views, exposing rootkits that filter the
// driver-enumeration API (a natural next step for Hacker Defender-style
// rootkits once AskStrider made the visible driver a liability, §4).
func (d *Detector) ScanDrivers() (*Report, error) { return d.scanPair(pairDrivers) }

// ScanAll runs all four detections and returns the reports in the
// paper's order: files, ASEP hooks, processes, modules, followed by the
// next-generation pairs Units enables. With Parallelism > 1, the scan
// units (eight, up to fourteen with every next-generation pair) fan out
// across that many lanes; see run. Reports are byte-identical for any
// lane count, and — absent faults, deadlines, and panics — identical
// whether or not Contain is set.
func (d *Detector) ScanAll() ([]*Report, error) {
	specs := make([]pairSpec, 0, pairDrivers)
	for i := range pairTable[:pairDrivers] {
		if g := pairTable[i].gate; g == 0 || d.Units.Has(g) {
			specs = append(specs, d.pair(i))
		}
	}
	return d.run(specs)
}

// scanPair runs the single pair row i of the pair table.
func (d *Detector) scanPair(i int) (*Report, error) {
	reports, err := d.run([]pairSpec{d.pair(i)})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// unitFunc is one scan unit: the high or the low scan of a pair,
// charging the given lane clock.
type unitFunc func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error)

// pairSpec is one row of the pair table: a resource detection's name,
// kind and nominal views, and its two scan units. gate names the
// next-generation unit switch that adds the row to ScanAll (zero for
// the paper's four).
type pairSpec struct {
	name      string
	kind      ResourceKind
	highView  View
	lowView   View
	gate      UnitSet
	high, low unitFunc
}

// unit returns the pair's high unit for even u, its low unit for odd u.
func (p *pairSpec) unit(u int) unitFunc {
	if u%2 == 0 {
		return p.high
	}
	return p.low
}

// Rows of pairTable. ScanAll runs the rows before pairDrivers, in this
// (report) order; the driver pair runs only through ScanDrivers.
const (
	pairFiles = iota
	pairASEPs
	pairProcs
	pairMods
	pairCrossMem
	pairBoot
	pairRemovable
	pairDrivers
)

// maxScanUnits bounds one run's unit count: both units of every ScanAll
// row. Execution-order permutations live in a fixed-size array of this
// bound, so randomized ordering allocates nothing.
const maxScanUnits = 2 * pairDrivers

// pairTable is the only description of a detection: every Detector scan
// method runs rows of it through run. The raw-MFT unit dominates a cold
// sweep, so it additionally shards its record decode across the lane
// bound (the other lanes' units are small and finish early, freeing
// cores for the decode shards).
var pairTable = [...]pairSpec{
	pairFiles: {"files", KindFiles, ViewWin32Inside, ViewRawMFT, 0, highUnit(scanFilesHighC),
		func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) {
			if c := s.d.Cache; c != nil {
				return c.scanFilesLowOn(clk, s.workers)
			}
			return scanFilesLowC(s.d.M, clk, s.workers, s.t)
		}},
	pairASEPs: {"ASEPs", KindASEPHooks, ViewWin32Inside, ViewRawHive, 0, highUnit(scanASEPHighC),
		func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) {
			if c := s.d.Cache; c != nil {
				return c.scanASEPLowOn(clk)
			}
			return scanASEPLowC(s.d.M, clk, s.t)
		}},
	pairProcs: {"processes", KindProcesses, ViewWin32Inside, ViewKernelAPL, 0, highUnit(scanProcsHighC),
		func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) {
			return scanProcsLowC(s.d.M, s.d.Advanced, clk, s.t)
		}},
	pairMods: {"modules", KindModules, ViewWin32Inside, ViewKernelVAD, 0,
		func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) {
			call, err := s.d.callOn(clk)
			if err != nil {
				return nil, err
			}
			pids, err := s.truthPids()
			if err != nil {
				return nil, err
			}
			return scanModsHighC(s.d.M, call, pids, s.t)
		},
		func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) {
			pids, err := s.truthPids()
			if err != nil {
				return nil, err
			}
			return scanModsLowC(s.d.M, pids, clk, s.t)
		}},
	pairCrossMem: {"kmem-carve", KindProcesses, ViewKernelCID, ViewKernelCarve, UnitCrossMem,
		clockUnit(scanCrossMemHighC), clockUnit(scanCrossMemLowC)},
	pairBoot: {"boot-chain", KindBootChain, ViewBootAPI, ViewBootRaw, UnitBootChain,
		highUnit(scanBootHighC), clockUnit(scanBootLowC)},
	pairRemovable: {"removable", KindFiles, ViewWin32Inside, ViewRawRemovable, UnitRemovable, highUnit(scanRemovableHighC),
		func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) {
			if c := s.d.Cache; c != nil {
				return c.scanRemovableLowOn(clk)
			}
			return scanRemovableLowC(s.d.M, clk, s.t)
		}},
	pairDrivers: {"drivers", KindDrivers, ViewWin32Inside, ViewKernelAPL, 0,
		highUnit(scanDriversHighC), clockUnit(scanDriversLowC)},
}

// pair returns row i of the pair table for this detector: the process
// pair's nominal low view follows Advanced.
func (d *Detector) pair(i int) pairSpec {
	s := pairTable[i]
	if i == pairProcs && d.Advanced {
		s.lowView = ViewKernelCID
	}
	return s
}

// highUnit adapts a high-level scan, which goes through the hookable
// API chain under the detector's identity, into a unit.
func highUnit(scan func(*machine.Machine, *winapi.Call, *InternTable) (*ColumnarSnapshot, error)) unitFunc {
	return func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) {
		call, err := s.d.callOn(clk)
		if err != nil {
			return nil, err
		}
		return scan(s.d.M, call, s.t)
	}
}

// clockUnit adapts a scan that charges the clock it is given, without
// going through the API chain, into a unit.
func clockUnit(scan func(*machine.Machine, *vtime.Clock, *InternTable) (*ColumnarSnapshot, error)) unitFunc {
	return func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) { return scan(s.d.M, clk, s.t) }
}

// callOn builds a fresh API call under the detector's identity whose
// traffic charges clk.
func (d *Detector) callOn(clk *vtime.Clock) (*winapi.Call, error) {
	var call *winapi.Call
	if d.AsProcess == "" {
		call = d.M.SystemCall()
	} else {
		var err error
		if call, err = d.M.CallAs(d.AsProcess); err != nil {
			return nil, err
		}
	}
	call.Clock = clk
	return call, nil
}

// sweep is the state one run shares with its units: the detector, the
// interning table every snapshot indexes, the MFT decode shard bound,
// and the truth pid list both module units read.
type sweep struct {
	d        *Detector
	t        *InternTable
	workers  int
	pids     []uint64
	pidsErr  error
	pidsDone bool
}

// truthPids computes the truth pid list once per run. The single-lane
// path computes it lazily, on the first module unit; the forked path
// computes it before forking, so lanes only read it.
func (s *sweep) truthPids() ([]uint64, error) {
	if !s.pidsDone {
		s.pids, s.pidsErr = TruthPids(s.d.M)
		s.pidsDone = true
	}
	return s.pids, s.pidsErr
}

// unitName labels unit u for errors and DegradedUnits entries.
func unitName(specs []pairSpec, u int) string {
	side := "high"
	if u%2 == 1 {
		side = "low"
	}
	return specs[u/2].name + "/" + side
}

// scanOrder fills perm with the unit execution order: identity for seed
// zero, a seeded Fisher-Yates shuffle otherwise (splitmix64 steps, so
// the order is a pure function of the seed and unit count).
func scanOrder(perm []int, seed int64) {
	for i := range perm {
		perm[i] = i
	}
	if seed == 0 {
		return
	}
	x := uint64(seed)
	for i := len(perm) - 1; i > 0; i-- {
		x += 0x9E3779B97F4A7C15
		z := x
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		j := int(z % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// ScanOrder returns the execution order a sweep of n units runs under
// the given seed. Exposed so tests and oracles can pick seeds that put
// chosen units ahead of the evasion trigger.
func ScanOrder(seed int64, n int) []int {
	perm := make([]int, n)
	scanOrder(perm, seed)
	return perm
}

// errDeadline marks units abandoned because the sweep's virtual-time
// budget ran out before they started.
var errDeadline = errors.New("core: scan deadline exceeded")

// ErrCancelled marks units abandoned because the sweep's Cancel channel
// closed before they started. Exported so the fleet layer can recognize
// a cancellation casualty (its text survives both the fail-fast error
// and a contained unit's DegradedUnit fault) and discard it instead of
// committing a partial verdict.
var ErrCancelled = errors.New("core: scan cancelled")

// runUnit executes one unit with panic recovery: a panicking scanner
// becomes a unit error (degrading the pair under Contain) instead of
// tearing down the whole sweep.
func runUnit(name string, s *sweep, clk *vtime.Clock, run unitFunc) (snap *ColumnarSnapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			snap, err = nil, fmt.Errorf("core: scan unit %s panicked: %v", name, r)
		}
	}()
	return run(s, clk)
}

// abandonUnit reports whether the next unit should be abandoned rather
// than started, and with which marker error: virtual-time budget spent,
// or external cancellation.
func (d *Detector) abandonUnit(clk *vtime.Clock, sweepStart time.Duration) error {
	if d.Deadline > 0 && clk.Now()-sweepStart > d.Deadline {
		return errDeadline
	}
	if d.Cancel != nil {
		select {
		case <-d.Cancel:
			return ErrCancelled
		default:
		}
	}
	return nil
}

// run is the one scan-unit runner: it runs both units of every pair in
// specs and assembles one report per pair. Unit 2i is pair i's high
// scan, unit 2i+1 its low scan; OrderSeed permutes their execution
// order. The units are statically assigned round-robin to
// clamp(Parallelism, 1, units) virtual-time lanes (execution slot k
// runs on lane k mod lanes), so every unit's virtual cost and Elapsed
// are the same for any lane count — the assignment never depends on
// goroutine scheduling.
//
// One lane runs inline on the machine clock and, without Contain, fails
// fast: the first unit error ends the run before later units charge any
// time. More lanes fork the machine clock into a region, one goroutine
// per lane; joining it advances the machine clock by the longest lane,
// which is exactly the wall-clock a set of concurrent scanners would
// have cost.
func (d *Detector) run(specs []pairSpec) ([]*Report, error) {
	genStart := d.M.Disk.Generation()
	sweepStart := d.M.Clock.Now()
	n := 2 * len(specs)
	lanes := min(max(d.Parallelism, 1), n)
	s := &sweep{d: d, t: d.table(), workers: lanes}
	var permBuf [maxScanUnits]int
	perm := permBuf[:n]
	scanOrder(perm, d.OrderSeed)
	snaps := make([]*ColumnarSnapshot, n)
	errs := make([]error, n)
	runLane := func(lane int, clk *vtime.Clock) {
		for k := lane; k < n; k += lanes {
			u := perm[k]
			if errs[u] = d.abandonUnit(clk, sweepStart); errs[u] == nil {
				snaps[u], errs[u] = runUnit(unitName(specs, u), s, clk, specs[u/2].unit(u))
			}
			if errs[u] != nil && !d.Contain && lanes == 1 {
				return
			}
		}
	}
	if lanes == 1 {
		runLane(0, d.M.Clock)
	} else {
		// The module units share the truth pid list: compute it on the
		// machine clock before forking, so lanes only read it.
		for _, spec := range specs {
			if spec.kind == KindModules {
				if _, err := s.truthPids(); err != nil && !d.Contain {
					return nil, fmt.Errorf("core: %s scan: %w", spec.name, err)
				}
			}
		}
		region := d.M.Clock.Fork(lanes)
		var wg sync.WaitGroup
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				runLane(lane, region.Lane(lane))
			}(lane)
		}
		wg.Wait()
		region.Join()
	}
	if !d.Contain {
		for u, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("core: %s scan: %w", specs[u/2].name, err)
			}
		}
	}
	return d.assemble(specs, snaps, errs, genStart)
}

// assemble diffs the unit snapshots into the per-pair reports. Under
// Contain, pairs with failed units yield degraded reports instead of
// errors, and a files pair whose disk generation moved mid-sweep is
// demoted: its findings may be mutation races, not hiding, so they are
// dropped and the demotion is recorded.
func (d *Detector) assemble(specs []pairSpec, snaps []*ColumnarSnapshot, errs []error, genStart uint64) ([]*Report, error) {
	diskMoved := d.Contain && d.M.Disk.Generation() != genStart
	out := make([]*Report, 0, len(specs))
	for i, spec := range specs {
		name := spec.name
		high, low := snaps[2*i], snaps[2*i+1]
		highErr, lowErr := errs[2*i], errs[2*i+1]
		var r *Report
		if highErr == nil && lowErr == nil {
			var err error
			r, err = DiffColumnar(high, low, d.Opts)
			if err != nil {
				if !d.Contain {
					return nil, fmt.Errorf("core: %s scan: %w", name, err)
				}
				r = stubReport(spec, high, low)
				r.DegradedUnits = append(r.DegradedUnits, DegradedUnit{
					Unit: name + "/pair", Fault: err.Error(), Compared: comparedViews(high, low),
				})
			}
		} else {
			r = stubReport(spec, high, low)
			if highErr != nil {
				r.DegradedUnits = append(r.DegradedUnits, DegradedUnit{
					Unit: name + "/high", Fault: highErr.Error(), Compared: comparedViews(high, low),
				})
			}
			if lowErr != nil {
				r.DegradedUnits = append(r.DegradedUnits, DegradedUnit{
					Unit: name + "/low", Fault: lowErr.Error(), Compared: comparedViews(high, low),
				})
			}
		}
		if spec.lowView == ViewRawMFT && diskMoved && r != nil && len(r.DegradedUnits) == 0 {
			// The filesystem changed under the sweep: a file created
			// between the high walk and the raw parse shows up low-only
			// without being hidden. Cross-view findings from this pair
			// are unreliable, so drop them and surface the race.
			r.Hidden, r.Noise, r.Phantom = nil, nil, nil
			r.MassHiding = nil
			r.DegradedUnits = append(r.DegradedUnits, DegradedUnit{
				Unit: "files/pair", Fault: "mid-scan filesystem mutation (device generation changed)",
				Compared: comparedViews(high, low),
			})
		}
		// Stub reports never went through Diff, and the demotion above
		// rewrites findings after sealing — re-seal so every report the
		// detector emits carries a digest matching its final content.
		r.Seal()
		if d.OnReport != nil {
			d.OnReport(r)
		}
		out = append(out, r)
	}
	return out, nil
}

// stubReport builds the degraded report for a pair from whatever
// snapshots survived; the spec supplies the nominal kind and views for
// snapshots that never materialized.
func stubReport(spec pairSpec, high, low *ColumnarSnapshot) *Report {
	r := &Report{Kind: spec.kind, HighView: spec.highView, LowView: spec.lowView}
	if high != nil {
		r.HighView = high.View
		r.HighSkipped = high.Skipped
		r.Elapsed += high.Elapsed
	}
	if low != nil {
		r.LowView = low.View
		r.LowSkipped = low.Skipped
		r.Elapsed += low.Elapsed
	}
	return r
}

// comparedViews lists the views that produced usable snapshots.
func comparedViews(high, low *ColumnarSnapshot) []View {
	var out []View
	if high != nil {
		out = append(out, high.View)
	}
	if low != nil {
		out = append(out, low.View)
	}
	return out
}
