package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ghostbuster/internal/winapi"
)

// scanEntry is one Detector scan method, normalized to a report slice,
// with the names of the pairs it reports in order.
type scanEntry struct {
	name  string
	pairs []string
	scan  func(*Detector) ([]*Report, error)
}

func singlePair(name, pair string, f func(*Detector) (*Report, error)) scanEntry {
	return scanEntry{name, []string{pair}, func(d *Detector) ([]*Report, error) {
		r, err := f(d)
		if err != nil {
			return nil, err
		}
		return []*Report{r}, nil
	}}
}

var scanEntries = []scanEntry{
	singlePair("ScanFiles", "files", (*Detector).ScanFiles),
	singlePair("ScanASEPs", "ASEPs", (*Detector).ScanASEPs),
	singlePair("ScanProcesses", "processes", (*Detector).ScanProcesses),
	singlePair("ScanModules", "modules", (*Detector).ScanModules),
	singlePair("ScanDrivers", "drivers", (*Detector).ScanDrivers),
	{"ScanAll", []string{"files", "ASEPs", "processes", "modules"}, (*Detector).ScanAll},
}

// failFirstCall arms an injected fault on the machine's first API call,
// which is the first pair's high unit under the fixed order (low units
// read truth sources, not the API).
func failFirstCall(d *Detector) {
	var calls atomic.Int32
	d.M.API.SetCallFault(func(api winapi.API, call *winapi.Call) error {
		if calls.Add(1) == 1 {
			return fmt.Errorf("%w: matrix probe", winapi.ErrInjectedFault)
		}
		return nil
	})
}

// TestDetectorOptionMatrix checks that every Detector option takes
// effect through every scan method: each one runs rows of the same pair
// table through the same runner, so no method may drop an option.
func TestDetectorOptionMatrix(t *testing.T) {
	detector := func(t *testing.T) *Detector {
		d := NewDetector(mustMachine(t))
		d.Advanced = true
		return d
	}
	// Reports of an option-free ScanAll, keyed by pair name.
	all, err := detector(t).ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]*Report{}
	for i, name := range scanEntries[len(scanEntries)-1].pairs {
		ref[name] = all[i]
	}

	for _, e := range scanEntries {
		t.Run(e.name+"/plain", func(t *testing.T) {
			reports, err := e.scan(detector(t))
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != len(e.pairs) {
				t.Fatalf("reports = %d, want %d", len(reports), len(e.pairs))
			}
			for i, name := range e.pairs {
				// The driver pair has no ScanAll row to compare against.
				if want, ok := ref[name]; ok && (reports[i].Digest != want.Digest || reports[i].Elapsed != want.Elapsed) {
					t.Errorf("%s report digest/elapsed = %.12s/%v, ScanAll's = %.12s/%v",
						name, reports[i].Digest, reports[i].Elapsed, want.Digest, want.Elapsed)
				}
			}
		})

		t.Run(e.name+"/contain", func(t *testing.T) {
			d := detector(t)
			failFirstCall(d)
			d.Contain = true
			reports, err := e.scan(d)
			if err != nil {
				t.Fatalf("contained scan under a fault: %v", err)
			}
			du := reports[0].DegradedUnits
			if len(du) != 1 || du[0].Unit != e.pairs[0]+"/high" {
				t.Errorf("degraded units = %+v, want one %s/high entry", du, e.pairs[0])
			}

			d = detector(t)
			failFirstCall(d)
			if _, err := e.scan(d); err == nil || !strings.Contains(err.Error(), "core: "+e.pairs[0]+" scan:") {
				t.Errorf("uncontained scan under a fault: err = %v, want a %s scan error", err, e.pairs[0])
			}
		})

		t.Run(e.name+"/cancel", func(t *testing.T) {
			closed := make(chan struct{})
			close(closed)
			d := detector(t)
			d.Cancel = closed
			start := d.M.Clock.Now()
			if _, err := e.scan(d); !errors.Is(err, ErrCancelled) {
				t.Errorf("cancelled scan: err = %v, want ErrCancelled", err)
			}
			if d.M.Clock.Now() != start {
				t.Errorf("cancelled scan charged %v of virtual time", d.M.Clock.Now()-start)
			}

			d = detector(t)
			d.Cancel = closed
			d.Contain = true
			reports, err := e.scan(d)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range reports {
				if len(r.DegradedUnits) != 2 || !strings.Contains(r.DegradedUnits[0].Fault, ErrCancelled.Error()) {
					t.Errorf("report %d degraded units = %+v, want both units cancelled", i, r.DegradedUnits)
				}
			}
		})

		t.Run(e.name+"/deadline", func(t *testing.T) {
			d := detector(t)
			d.Deadline = time.Nanosecond
			if _, err := e.scan(d); !errors.Is(err, errDeadline) {
				t.Errorf("uncontained 1ns-deadline scan: err = %v, want the deadline error", err)
			}

			d = detector(t)
			d.Deadline = time.Nanosecond
			d.Contain = true
			reports, err := e.scan(d)
			if err != nil {
				t.Fatal(err)
			}
			// The first unit starts inside the budget; every later one
			// is abandoned.
			for i, r := range reports {
				want := 2
				if i == 0 {
					want = 1
				}
				if len(r.DegradedUnits) != want {
					t.Errorf("report %d degraded units = %+v, want %d", i, r.DegradedUnits, want)
				}
				for _, du := range r.DegradedUnits {
					if !strings.Contains(du.Fault, "deadline") {
						t.Errorf("report %d degraded by %q, want a deadline fault", i, du.Fault)
					}
				}
			}
		})

		t.Run(e.name+"/onreport", func(t *testing.T) {
			d := detector(t)
			var seen []*Report
			d.OnReport = func(r *Report) { seen = append(seen, r) }
			reports, err := e.scan(d)
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(reports) {
				t.Fatalf("OnReport saw %d reports, the scan returned %d", len(seen), len(reports))
			}
			for i := range reports {
				if seen[i] != reports[i] {
					t.Errorf("OnReport report %d is not the returned report", i)
				}
			}
		})

		t.Run(e.name+"/orderseed", func(t *testing.T) {
			// Pick a seed whose first executed unit is not unit 0. Under a
			// 1ns deadline only that unit runs, so the surviving view
			// shows which unit the seed put first.
			units := 2 * len(e.pairs)
			var seed int64 = 1
			for ScanOrder(seed, units)[0] == 0 {
				seed++
			}
			first := ScanOrder(seed, units)[0]
			d := detector(t)
			d.Deadline = time.Nanosecond
			d.Contain = true
			d.OrderSeed = seed
			reports, err := e.scan(d)
			if err != nil {
				t.Fatal(err)
			}
			abandoned := e.pairs[first/2] + "/low"
			if first%2 == 1 {
				abandoned = e.pairs[first/2] + "/high"
			}
			if du := reports[first/2].DegradedUnits; len(du) != 1 || du[0].Unit != abandoned {
				t.Errorf("seed %d: degraded units = %+v, want only %s abandoned", seed, du, abandoned)
			}

			// Without a deadline the order changes no report.
			d = detector(t)
			d.OrderSeed = seed
			seeded, err := e.scan(d)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := e.scan(detector(t))
			if err != nil {
				t.Fatal(err)
			}
			for i := range plain {
				if seeded[i].Digest != plain[i].Digest || seeded[i].Elapsed != plain[i].Elapsed {
					t.Errorf("report %d differs under OrderSeed %d", i, seed)
				}
			}
		})

		t.Run(e.name+"/parallelism", func(t *testing.T) {
			run := func(lanes int) ([]*Report, time.Duration) {
				d := detector(t)
				d.Parallelism = lanes
				start := d.M.Clock.Now()
				reports, err := e.scan(d)
				if err != nil {
					t.Fatal(err)
				}
				return reports, d.M.Clock.Now() - start
			}
			one, oneSpan := run(1)
			four, fourSpan := run(4)
			for i := range one {
				if one[i].Digest != four[i].Digest || one[i].Elapsed != four[i].Elapsed {
					t.Errorf("report %d differs between 1 and 4 lanes", i)
				}
			}
			// Forked lanes overlap the units: the machine clock advances
			// by the longest lane, not the sum.
			if fourSpan >= oneSpan {
				t.Errorf("4-lane scan took %v of virtual time, 1-lane %v; want less", fourSpan, oneSpan)
			}
		})
	}
}
