package core

import (
	"fmt"
	"slices"
	"time"
)

// DefaultMassHidingThreshold is the hidden-entry count above which a
// report flags a mass-hiding anomaly.
const DefaultMassHidingThreshold = 100

// DiffOptions tunes the cross-view comparison.
type DiffOptions struct {
	// NoiseFilters classify hidden-side findings as known-benign churn.
	NoiseFilters []NoiseFilter
	// MassHidingThreshold overrides DefaultMassHidingThreshold; zero
	// keeps the default, negative disables the anomaly check.
	MassHidingThreshold int
}

// Diff compares a high-level (possibly lied-to) snapshot with a
// low-level or outside (truth) snapshot of the same resource kind.
// Entries present only in the truth view are hidden resources.
//
// This is the map-probe engine, kept for map-backed snapshots built by
// outside-the-box adapters; the detector hot path runs DiffColumnar,
// which produces byte-identical reports (a property the differential
// suite in internal/ghostfuzz enforces over the whole corpus).
func Diff(high, low *Snapshot, opts DiffOptions) (*Report, error) {
	if high.Kind != low.Kind {
		return nil, fmt.Errorf("core: diffing %v against %v", high.Kind, low.Kind)
	}
	r := &Report{
		Kind: high.Kind, HighView: high.View, LowView: low.View,
		HighSkipped: high.Skipped, LowSkipped: low.Skipped,
	}
	for id, e := range low.Entries {
		if _, visible := high.Entries[id]; visible {
			continue
		}
		classifyHidden(r, Finding{Kind: low.Kind, ID: id, Display: e.Display, Detail: e.Detail}, opts)
	}
	for id, e := range high.Entries {
		if _, present := low.Entries[id]; !present {
			r.Phantom = append(r.Phantom, Finding{Kind: high.Kind, ID: id, Display: e.Display, Detail: e.Detail})
		}
	}
	sortFindings(r.Hidden)
	sortFindings(r.Noise)
	sortFindings(r.Phantom)
	finishReport(r, high.Elapsed+low.Elapsed, high.Len()+low.Len(), opts)
	return r, nil
}

// DiffColumnar is the columnar diff engine: a sorted merge-join over
// the two snapshots' interned-ID columns. Both snapshots must index the
// same InternTable (every snapshot one detector builds does); snapshots
// from different tables fall back to the map engine via the adapter,
// since their symbol orders are not comparable.
func DiffColumnar(high, low *ColumnarSnapshot, opts DiffOptions) (*Report, error) {
	if high.Kind != low.Kind {
		return nil, fmt.Errorf("core: diffing %v against %v", high.Kind, low.Kind)
	}
	if high.table != low.table {
		return Diff(high.Snapshot(), low.Snapshot(), opts)
	}
	r := &Report{}
	diffColumnarInto(r, high, low, opts)
	return r, nil
}

// DiffColumnarInto is DiffColumnar reusing the caller's report: the
// finding slices keep their backing arrays, so a warm incremental diff
// of an unchanged volume — the every-sweep fleet case — allocates
// nothing (pinned by TestWarmColumnarDiffZeroAlloc). The report must
// not be retained elsewhere; callers that publish reports use
// DiffColumnar.
func DiffColumnarInto(r *Report, high, low *ColumnarSnapshot, opts DiffOptions) error {
	if high.Kind != low.Kind {
		return fmt.Errorf("core: diffing %v against %v", high.Kind, low.Kind)
	}
	if high.table != low.table {
		return fmt.Errorf("core: diffing snapshots from different intern tables")
	}
	hidden, noise, phantom := r.Hidden[:0], r.Noise[:0], r.Phantom[:0]
	*r = Report{Hidden: hidden, Noise: noise, Phantom: phantom}
	diffColumnarInto(r, high, low, opts)
	if len(r.Hidden) == 0 {
		r.Hidden = nil
	}
	if len(r.Noise) == 0 {
		r.Noise = nil
	}
	if len(r.Phantom) == 0 {
		r.Phantom = nil
	}
	return nil
}

// diffColumnarInto merge-joins into r, which carries (possibly
// preallocated, length-zero) finding slices. Findings surface in symbol
// order and are re-sorted to canonical ID order afterwards, so the
// output is byte-identical to the map engine's.
func diffColumnarInto(r *Report, high, low *ColumnarSnapshot, opts DiffOptions) {
	r.Kind = high.Kind
	r.HighView = high.View
	r.LowView = low.View
	r.HighSkipped = high.Skipped
	r.LowSkipped = low.Skipped
	strs := high.table.view()
	i, j := 0, 0
	for i < len(high.ids) && j < len(low.ids) {
		hs, ls := high.ids[i], low.ids[j]
		switch {
		case hs == ls:
			i++
			j++
		case hs < ls:
			r.Phantom = append(r.Phantom, Finding{Kind: high.Kind, ID: strs[hs], Display: high.displays[i], Detail: high.details[i]})
			i++
		default:
			classifyHidden(r, Finding{Kind: low.Kind, ID: strs[ls], Display: low.displays[j], Detail: low.details[j]}, opts)
			j++
		}
	}
	for ; i < len(high.ids); i++ {
		sym := high.ids[i]
		r.Phantom = append(r.Phantom, Finding{Kind: high.Kind, ID: strs[sym], Display: high.displays[i], Detail: high.details[i]})
	}
	for ; j < len(low.ids); j++ {
		sym := low.ids[j]
		classifyHidden(r, Finding{Kind: low.Kind, ID: strs[sym], Display: low.displays[j], Detail: low.details[j]}, opts)
	}
	sortFindings(r.Hidden)
	sortFindings(r.Noise)
	sortFindings(r.Phantom)
	finishReport(r, high.Elapsed+low.Elapsed, high.Len()+low.Len(), opts)
}

// classifyHidden routes one truth-only finding to Hidden or Noise.
func classifyHidden(r *Report, f Finding, opts DiffOptions) {
	if reason, benign := matchNoise(opts.NoiseFilters, f); benign {
		f.Noise = true
		f.Reason = reason
		r.Noise = append(r.Noise, f)
		return
	}
	r.Hidden = append(r.Hidden, f)
}

// finishReport applies the shared tail of both diff engines: the
// virtual-time charge and the mass-hiding anomaly check.
func finishReport(r *Report, scanElapsed time.Duration, entries int, opts DiffOptions) {
	threshold := opts.MassHidingThreshold
	if threshold == 0 {
		threshold = DefaultMassHidingThreshold
	}
	r.Elapsed = scanElapsed + time.Duration(entries)*costDiffPerEntry
	if threshold > 0 && len(r.Hidden) > threshold {
		r.MassHiding = &MassHidingAnomaly{HiddenCount: len(r.Hidden), Threshold: threshold}
	}
}

// SealedDiff is Diff plus a digest seal — the form the outside-the-box
// checks (WinPE, crash dump) emit; the detector's runner seals its own
// reports after assembly. Diff itself stays allocation-lean for callers
// that diff snapshots in a loop.
func SealedDiff(high, low *Snapshot, opts DiffOptions) (*Report, error) {
	r, err := Diff(high, low, opts)
	if err != nil {
		return nil, err
	}
	r.Seal()
	return r, nil
}

func sortFindings(fs []Finding) {
	// slices.SortFunc stays closure-allocation-free (unlike the old
	// sort.Slice form), so the common clean case costs nothing.
	slices.SortFunc(fs, func(a, b Finding) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
}
