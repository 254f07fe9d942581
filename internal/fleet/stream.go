// Streaming sweeps: the one scan loop every sweep runs through. Each
// committed result is folded into a compact SweepSummary (counts,
// virtual-time charges, and an order-independent digest accumulator)
// the moment it commits, handed to an optional sink, and dropped — so a
// shard sweeping a hundred thousand hosts keeps O(in-flight) results
// resident, never O(hosts). The materialized Report of SweepJournaled
// and Resume is just a sink that keeps every result. The summary's
// digest is the per-shard entry in the cross-shard (fourth)
// verification layer; internal/fleetshard merges summaries across
// shards.
package fleet

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"ghostbuster/internal/journal"
)

// ResidentGauge counts host results that are in flight or awaiting
// aggregation. Sweeps raise it when a host scan starts and
// lower it once the result has been folded and released, so its peak is
// the bounded-memory invariant a test can pin: peak ≤ workers (+1 for
// the result crossing the channel), or summed across a coordinator's
// shards, O(shards + in-flight hosts).
type ResidentGauge struct {
	cur, peak atomic.Int64
}

// Inc marks one more result resident.
func (g *ResidentGauge) Inc() {
	c := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if c <= p || g.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// Dec marks one result folded and released.
func (g *ResidentGauge) Dec() { g.cur.Add(-1) }

// Peak returns the highest resident count observed.
func (g *ResidentGauge) Peak() int { return int(g.peak.Load()) }

// SweepSummary is the bounded-memory outcome of a streamed sweep: what
// a sweeper shard sends back to its coordinator instead of a full
// Report. Everything in it is O(1) in the host count.
type SweepSummary struct {
	Kind SweepKind `json:"kind"`
	// Hosts is the enrolled host count; Scanned how many produced a
	// committed result (replayed ones included).
	Hosts   int `json:"hosts"`
	Scanned int `json:"scanned"`
	// Verdict counters over the scanned hosts.
	Infected      int `json:"infected"`
	HiddenTotal   int `json:"hiddenTotal"`
	Failed        int `json:"failed"`
	DegradedHosts int `json:"degradedHosts"`
	Quarantined   int `json:"quarantined"`
	// Replayed counts hosts restored from the journal on resume;
	// provenance, excluded from the digest like Report.Replayed.
	Replayed int `json:"replayed,omitempty"`
	// NotScanned counts hosts an abort left unvisited.
	NotScanned  int    `json:"notScanned,omitempty"`
	Aborted     bool   `json:"aborted,omitempty"`
	AbortReason string `json:"abortReason,omitempty"`
	// Interrupted marks a sweep cut short through Manager.Cancel: the
	// journal is sealed at the last committed record and NotScanned
	// counts the abandoned hosts. Provenance (like Replayed), excluded
	// from the digest — a wedged shard's committed work must merge into
	// the same cross-shard digest an uninterrupted run produces.
	Interrupted bool `json:"interrupted,omitempty"`
	// Hedged counts duplicate scans launched for stragglers; HedgeWins
	// how many of those beat the primary. Provenance, excluded from the
	// digest: hedging may only change who computed a result, never the
	// result.
	Hedged    int64 `json:"hedged,omitempty"`
	HedgeWins int64 `json:"hedgeWins,omitempty"`
	// VirtualNs sums every host's Elapsed + RetryNs: the shard's total
	// virtual scan cost. A shard models one sweeper process scanning
	// its hosts, so this is also the shard's virtual makespan.
	VirtualNs int64 `json:"virtualNs"`
	// PeakResident is the gauge's high-water mark (shared gauge: the
	// coordinator-wide peak). Diagnostic, excluded from the digest.
	PeakResident int `json:"peakResident,omitempty"`
	// Acc is the order-independent fold of every scanned host's
	// (name, result hash) contribution.
	Acc Accumulator `json:"acc"`
	// Digest seals the summary (see ComputeDigest).
	Digest string `json:"digest,omitempty"`
}

// summaryDigestBody is the canonical form the summary digest covers:
// verdict structure and the host-content accumulator — not timing, not
// provenance, not the memory gauge.
type summaryDigestBody struct {
	Kind          SweepKind `json:"kind"`
	Hosts         int       `json:"hosts"`
	Scanned       int       `json:"scanned"`
	Infected      int       `json:"infected"`
	HiddenTotal   int       `json:"hiddenTotal"`
	Failed        int       `json:"failed"`
	DegradedHosts int       `json:"degradedHosts"`
	Quarantined   int       `json:"quarantined"`
	NotScanned    int       `json:"notScanned,omitempty"`
	Aborted       bool      `json:"aborted,omitempty"`
	AbortReason   string    `json:"abortReason,omitempty"`
	Acc           string    `json:"acc"`
}

func (s *SweepSummary) digestBody() summaryDigestBody {
	return summaryDigestBody{
		Kind: s.Kind, Hosts: s.Hosts, Scanned: s.Scanned,
		Infected: s.Infected, HiddenTotal: s.HiddenTotal,
		Failed: s.Failed, DegradedHosts: s.DegradedHosts,
		Quarantined: s.Quarantined, NotScanned: s.NotScanned,
		Aborted: s.Aborted, AbortReason: s.AbortReason,
		Acc: s.Acc.Sum(),
	}
}

// ComputeDigest returns the summary's canonical digest.
func (s *SweepSummary) ComputeDigest() string {
	data, err := json.Marshal(s.digestBody())
	if err != nil {
		panic(fmt.Sprintf("fleet: summary digest marshal: %v", err))
	}
	return journal.Hash(data)
}

// Seal stamps the summary with its digest.
func (s *SweepSummary) Seal() { s.Digest = s.ComputeDigest() }

// VerifyDigest checks the seal against the summary's content.
func (s *SweepSummary) VerifyDigest() error {
	if s.Digest == "" {
		return fmt.Errorf("fleet: sweep summary is unsealed (no digest)")
	}
	if got := s.ComputeDigest(); got != s.Digest {
		return fmt.Errorf("fleet: sweep summary digest mismatch: sealed %.12s, content hashes %.12s — summary altered after sealing",
			s.Digest, got)
	}
	return nil
}

// fold absorbs one committed host result. The result must already
// carry its content hash.
func (s *SweepSummary) fold(res HostResult) {
	s.Scanned++
	s.VirtualNs += int64(res.Elapsed + res.RetryNs)
	if res.Infected {
		s.Infected++
		s.HiddenTotal += res.Hidden
	}
	if res.Err != "" {
		s.Failed++
	}
	if res.Degraded > 0 {
		s.DegradedHosts++
	}
	if res.Quarantined {
		s.Quarantined++
	}
	s.Acc.Fold(res.Host, res.Hash)
}

// Merge folds another summary of the same sweep kind into this one —
// how a coordinator combines a resumed shard's primary summary with the
// recovery pass that adopted a lost shard's hosts. The merged summary
// is unsealed; call Seal again.
func (s *SweepSummary) Merge(o *SweepSummary) {
	s.Hosts += o.Hosts
	s.Scanned += o.Scanned
	s.Infected += o.Infected
	s.HiddenTotal += o.HiddenTotal
	s.Failed += o.Failed
	s.DegradedHosts += o.DegradedHosts
	s.Quarantined += o.Quarantined
	s.Replayed += o.Replayed
	s.NotScanned += o.NotScanned
	if o.Aborted {
		s.Aborted = true
		if s.AbortReason == "" {
			s.AbortReason = o.AbortReason
		}
	}
	if o.Interrupted {
		s.Interrupted = true
	}
	s.Hedged += o.Hedged
	s.HedgeWins += o.HedgeWins
	s.VirtualNs += o.VirtualNs
	if o.PeakResident > s.PeakResident {
		s.PeakResident = o.PeakResident
	}
	s.Acc.Merge(o.Acc)
	s.Digest = ""
}

// SweepStreamed runs an unjournaled streaming sweep: every committed
// result is folded into the summary, offered to sink (which may be
// nil), and dropped. This is the path the million-host benchmark pins:
// no journal I/O, no retained results, O(in-flight) memory.
func (mgr *Manager) SweepStreamed(kind SweepKind, workers int, sink func(HostResult)) (*SweepSummary, error) {
	return mgr.sweepStream(kind, workers, nil, nil, sink)
}

// SweepJournaledStream is SweepJournaled with streaming aggregation:
// the journal still commits every host state transition (so the sweep
// is resumable), but results fold into a SweepSummary instead of
// accumulating into a Report.
func (mgr *Manager) SweepJournaledStream(kind SweepKind, workers int, path string, sink func(HostResult)) (*SweepSummary, error) {
	j, err := mgr.createJournal(kind, path)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	return mgr.sweepStream(kind, workers, j, nil, sink)
}

// ResumeStream continues an interrupted streamed sweep from its
// journal: committed results are hash-verified, folded, and offered to
// sink without re-scanning; dangling hosts re-run with attempt
// numbering continued — the same resume contract as Resume, at
// O(in-flight) result residency.
func (mgr *Manager) ResumeStream(kind SweepKind, workers int, path string, sink func(HostResult)) (*SweepSummary, error) {
	j, replay, err := mgr.openJournal(kind, path)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	return mgr.sweepStream(kind, workers, j, replay, sink)
}

// sweepStream is the scan loop behind every sweep entry point: it
// replays the journal's committed results, schedules the remaining
// hosts, and commits each result — journal record, summary fold, sink —
// while enforcing hedging, Cancel, the resident gauge and the error
// budget. j == nil means unjournaled.
func (mgr *Manager) sweepStream(kind SweepKind, workers int, j *journal.Journal, replay map[string]*hostReplay, sink func(HostResult)) (*SweepSummary, error) {
	mgr.ensureSorted()
	sum := &SweepSummary{Kind: kind, Hosts: len(mgr.hosts)}
	gauge := mgr.Resident
	if gauge == nil {
		gauge = &ResidentGauge{}
	}

	total := len(mgr.hosts)
	failed := 0
	emit := func(res HostResult) {
		sum.fold(res)
		if sink != nil {
			sink(res)
		}
	}

	// Replay committed results first: verified by analyzeJournal, folded
	// and released one at a time.
	var toRun []int
	for i, h := range mgr.hosts {
		hr := replay[h.Name]
		if hr != nil && hr.committed != nil {
			res := *hr.committed
			hr.committed = nil // folded; free the parsed result
			gauge.Inc()
			sum.Replayed++
			emit(res)
			gauge.Dec()
			if res.Err != "" || res.Quarantined {
				failed++
			}
			continue
		}
		toRun = append(toRun, i)
	}

	// Journal appends happen on worker goroutines too; the first write
	// failure aborts the sweep loudly — a sweep that cannot commit its
	// progress must not pretend to be durable.
	var (
		appendErrOnce sync.Once
		appendErr     error
		stop          = make(chan struct{})
		stopOnce      sync.Once
	)
	halt := func(err error) {
		appendErrOnce.Do(func() { appendErr = err })
		stopOnce.Do(func() { close(stop) })
	}
	append_ := func(rec journal.Record) {
		if j == nil {
			return
		}
		if _, err := j.Append(rec); err != nil {
			halt(err)
		}
	}

	hg := newHedger(mgr.Hedge)
	scan := func(h *Host) HostResult {
		gauge.Inc() // raised for the whole in-flight window, dec'd after fold
		var prior hostReplay
		if hr := replay[h.Name]; hr != nil {
			prior = *hr
		}
		if hg != nil && mgr.hedgeable(h) {
			// Hedge-capable hosts journal no attempt records; see the
			// dedupe rules in hedge.go.
			return hg.hedgedRun(h, func(hh *Host) HostResult {
				r := mgr.runHostFrom(hh, kind, prior.attempts, prior.dangling, nil)
				hh.release()
				return r
			})
		}
		res := mgr.runHostFrom(h, kind, prior.attempts, prior.dangling, func(attempt int) {
			append_(journal.Record{State: journal.StateRunning, Host: h.Name, Attempt: attempt})
		})
		h.release() // lazy hosts drop their machine once the result stands
		return res
	}

	results := mgr.scheduleHosts(workers, toRun, stop, scan)
collect:
	for {
		var res HostResult
		var ok bool
		// A nil Cancel channel never fires; the select degenerates to a
		// plain receive.
		select {
		case <-mgr.Cancel:
			// Wedged-shard abandonment: stop issuing hosts, discard any
			// results still in flight (they were never journaled or
			// folded, so the committed set stays exactly the journal's),
			// and return the partial summary. Terminal records are only
			// ever appended by this loop, so breaking out of it IS the
			// seal at the last committed record.
			sum.Interrupted = true
			stopOnce.Do(func() { close(stop) })
			go func() {
				for range results {
				}
			}()
			break collect
		case res, ok = <-results:
			if !ok {
				break collect
			}
		}
		if mgr.cancelFired() && resultCancelled(&res) {
			// A scan the cancellation caught mid-flight: partial by
			// construction, never committed. The host stays unfinished
			// (its journal record, if any, is a dangling attempt) and is
			// re-scanned in full by whoever adopts it.
			gauge.Dec()
			continue
		}
		if res.Kind == "" {
			res.Kind = kind // panic-captured results carry only Host and Err
		}
		res.Hash = ResultHash(res)
		state := terminalState(res)
		if j != nil {
			resJSON, err := json.Marshal(res)
			if err != nil {
				halt(fmt.Errorf("fleet: marshal result for %s: %w", res.Host, err))
				gauge.Dec()
				continue
			}
			rec := journal.Record{
				State: state, Host: res.Host, Attempt: res.Attempts,
				ElapsedNs: int64(res.Elapsed), RetryNs: int64(res.RetryNs),
				ResultHash: res.Hash, Result: resJSON,
			}
			if res.Quarantined {
				rec.Reason = fmt.Sprintf("circuit breaker open: %d consecutive failed attempts", mgr.BreakerThreshold)
			}
			append_(rec)
		}
		emit(res)
		gauge.Dec()
		if res.Err != "" || res.Quarantined {
			failed++
			if f := mgr.AbortAfterFailureFraction; f > 0 && float64(failed) > f*float64(total) && !sum.Aborted {
				sum.Aborted = true
				sum.AbortReason = fmt.Sprintf("error budget exceeded: %d of %d hosts failed (budget %.0f%%) — aborting sweep",
					failed, total, f*100)
				append_(journal.Record{State: journal.StateAborted, Reason: sum.AbortReason})
				stopOnce.Do(func() { close(stop) })
			}
		}
	}
	if appendErr != nil {
		return nil, appendErr
	}
	if hg != nil {
		sum.Hedged = hg.hedged.Load()
		sum.HedgeWins = hg.wins.Load()
	}
	sum.NotScanned = total - sum.Scanned
	sum.PeakResident = gauge.Peak()
	sum.Seal()
	return sum, nil
}

// ReplayStream folds a sealed (possibly partial) journal's committed
// results without re-running anything. This is how a coordinator
// resuming after a crash accounts for a shard that had already been
// declared wedged: its journal is replay-only — the unfinished hosts
// belong to the survivors that adopted them, so re-scanning them here
// would commit them twice. The manager must enroll the shard's full
// original assignment (the journal header is validated against it);
// the summary comes back Interrupted with NotScanned counting the
// adopted hosts.
func (mgr *Manager) ReplayStream(kind SweepKind, path string, sink func(HostResult)) (*SweepSummary, error) {
	j, replay, err := mgr.openJournal(kind, path)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	mgr.ensureSorted()
	sum := &SweepSummary{Kind: kind, Hosts: len(mgr.hosts), Interrupted: true}
	for _, h := range mgr.hosts {
		hr := replay[h.Name]
		if hr == nil || hr.committed == nil {
			continue
		}
		res := *hr.committed
		hr.committed = nil
		sum.Replayed++
		sum.fold(res)
		if sink != nil {
			sink(res)
		}
	}
	sum.NotScanned = len(mgr.hosts) - sum.Scanned
	sum.Seal()
	return sum, nil
}
