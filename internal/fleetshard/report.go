// Sealing and verification for the fleet-of-fleets report: the fourth
// layer of the evidence chain. Layer 1 is each scan report's canonical
// digest (core.Report.Digest), layer 2 each host result's content hash
// (fleet.ResultHash), layer 3 each shard summary's digest
// (fleet.SweepSummary.Digest), and layer 4 is here — the cross-shard
// report digest over the shard breakdown plus the topology-independent
// MergedDigest over the aggregate verdict and the host-contribution
// accumulator.
package fleetshard

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"ghostbuster/internal/fleet"
	"ghostbuster/internal/journal"
)

// mergedDigestBody is the canonical form MergedDigest covers: the
// aggregate verdict and the accumulator sum — nothing about which shard
// scanned which host, so an uninterrupted run and a resume that
// re-hashed lost shards' hosts seal identically when every host
// produced the same verdict.
type mergedDigestBody struct {
	Kind             fleet.SweepKind `json:"kind"`
	Hosts            int             `json:"hosts"`
	Scanned          int             `json:"scanned"`
	Infected         int             `json:"infected"`
	HiddenTotal      int             `json:"hiddenTotal"`
	Failed           int             `json:"failed"`
	DegradedHosts    int             `json:"degradedHosts"`
	QuarantinedHosts int             `json:"quarantinedHosts"`
	NotScanned       int             `json:"notScanned,omitempty"`
	Aborted          bool            `json:"aborted,omitempty"`
	Acc              string          `json:"acc"`
}

// shardDigestRow is one shard's contribution to the full (layer-4)
// report digest: identity and verdict, never timing or provenance.
type shardDigestRow struct {
	Shard       int    `json:"shard"`
	Hosts       int    `json:"hosts"`
	Digest      string `json:"digest,omitempty"` // the shard summary's seal
	Lost        bool   `json:"lost,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	Err         string `json:"error,omitempty"`
}

// reportDigestBody is the canonical form the full report digest covers.
type reportDigestBody struct {
	Merged mergedDigestBody `json:"merged"`
	Shards []shardDigestRow `json:"shards"`
	Abort  string           `json:"abortReason,omitempty"`
}

// mergedAcc folds every shard summary's accumulator into the
// fleet-wide one.
func mergedAcc(r *Report) fleet.Accumulator {
	var acc fleet.Accumulator
	for _, sr := range r.ShardResults {
		if sr.Summary != nil {
			acc.Merge(sr.Summary.Acc)
		}
	}
	return acc
}

func (r *Report) mergedBody() mergedDigestBody {
	return mergedDigestBody{
		Kind: r.Kind, Hosts: r.Hosts, Scanned: r.Scanned,
		Infected: r.Infected, HiddenTotal: r.HiddenTotal,
		Failed: r.Failed, DegradedHosts: r.DegradedHosts,
		QuarantinedHosts: r.QuarantinedHosts, NotScanned: r.NotScanned,
		Aborted: r.Aborted, Acc: r.Acc.Sum(),
	}
}

// ComputeMergedDigest returns the topology-independent fourth-layer
// digest: the invariant a crash-resume run must reproduce exactly.
func (r *Report) ComputeMergedDigest() string {
	data, err := json.Marshal(r.mergedBody())
	if err != nil {
		panic(fmt.Sprintf("fleetshard: merged digest marshal: %v", err))
	}
	return journal.Hash(data)
}

// ComputeDigest returns the full report digest over the merged body and
// the per-shard breakdown.
func (r *Report) ComputeDigest() string {
	body := reportDigestBody{Merged: r.mergedBody(), Abort: r.AbortReason}
	for _, sr := range r.ShardResults {
		row := shardDigestRow{Shard: sr.Shard, Hosts: sr.Hosts, Lost: sr.Lost,
			Quarantined: sr.Quarantined, Err: sr.Err}
		if sr.Summary != nil {
			row.Digest = sr.Summary.Digest
		}
		body.Shards = append(body.Shards, row)
	}
	data, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("fleetshard: report digest marshal: %v", err))
	}
	return journal.Hash(data)
}

// Seal stamps both digests.
func (r *Report) Seal() {
	r.MergedDigest = r.ComputeMergedDigest()
	r.Digest = r.ComputeDigest()
}

// Verify checks the cross-shard digest layer end to end: every shard
// summary's seal, the aggregate counters against the summaries they
// claim to aggregate, the merged accumulator, and both report digests.
// Any mutation after sealing fails here.
func (r *Report) Verify() error {
	if r.Digest == "" || r.MergedDigest == "" {
		return fmt.Errorf("fleetshard: report is unsealed")
	}
	var agg Report
	for _, sr := range r.ShardResults {
		if sr.Summary == nil {
			continue
		}
		if err := sr.Summary.VerifyDigest(); err != nil {
			return fmt.Errorf("fleetshard: shard %d: %w", sr.Shard, err)
		}
		s := sr.Summary
		agg.Scanned += s.Scanned
		agg.Infected += s.Infected
		agg.HiddenTotal += s.HiddenTotal
		agg.Failed += s.Failed
		agg.DegradedHosts += s.DegradedHosts
		agg.QuarantinedHosts += s.Quarantined
	}
	if agg.Scanned != r.Scanned || agg.Infected != r.Infected || agg.HiddenTotal != r.HiddenTotal ||
		agg.Failed != r.Failed || agg.DegradedHosts != r.DegradedHosts || agg.QuarantinedHosts != r.QuarantinedHosts {
		return fmt.Errorf("fleetshard: aggregate counters do not match the shard summaries — report altered after sealing")
	}
	if got := mergedAcc(r); got.Sum() != r.Acc.Sum() {
		return fmt.Errorf("fleetshard: merged accumulator does not match the shard accumulators")
	}
	if got := r.ComputeMergedDigest(); got != r.MergedDigest {
		return fmt.Errorf("fleetshard: merged digest mismatch: sealed %.12s, content hashes %.12s", r.MergedDigest, got)
	}
	if got := r.ComputeDigest(); got != r.Digest {
		return fmt.Errorf("fleetshard: report digest mismatch: sealed %.12s, content hashes %.12s", r.Digest, got)
	}
	return nil
}

// VerifyJournals is the deep audit: it replays every shard journal
// under dir (primary and recovery), verifies each committed host result
// down the whole chain — layer-2 content hash, then every layer-1 scan
// report digest — checks that no host committed twice across the
// journal set, and re-folds the accumulator from the journals to prove
// it matches the sealed report. The audit holds O(hosts) hashes (a seen
// set), not O(hosts) results; it is a forensic tool, not the sweep hot
// path.
func (r *Report) VerifyJournals(dir string) error {
	if err := r.Verify(); err != nil {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.gbj"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("fleetshard: no shard journals under %s", dir)
	}
	sort.Strings(paths)
	var acc fleet.Accumulator
	scanned := 0
	seen := map[string]bool{}
	for _, path := range paths {
		recs, dropped, err := journal.Read(path)
		if err != nil {
			return fmt.Errorf("fleetshard: %s: %w", filepath.Base(path), err)
		}
		if dropped != 0 {
			return fmt.Errorf("fleetshard: %s carries a torn tail (%d bytes) after the sweep completed", filepath.Base(path), dropped)
		}
		for _, rec := range recs {
			if !rec.State.Terminal() {
				continue
			}
			var res fleet.HostResult
			if err := json.Unmarshal(rec.Result, &res); err != nil {
				return fmt.Errorf("fleetshard: %s: result for %s unparseable: %w", filepath.Base(path), rec.Host, err)
			}
			if got := fleet.ResultHash(res); got != rec.ResultHash || rec.ResultHash == "" {
				return fmt.Errorf("fleetshard: %s: host %s result fails hash verification", filepath.Base(path), rec.Host)
			}
			for _, rep := range res.Reports {
				if err := rep.VerifyDigest(); err != nil {
					return fmt.Errorf("fleetshard: %s: host %s: %w", filepath.Base(path), rec.Host, err)
				}
			}
			if seen[rec.Host] {
				return fmt.Errorf("fleetshard: host %s committed in two journals — a host must belong to exactly one shard", rec.Host)
			}
			seen[rec.Host] = true
			acc.Fold(rec.Host, rec.ResultHash)
			scanned++
		}
	}
	if scanned != r.Scanned {
		return fmt.Errorf("fleetshard: journals commit %d hosts, report claims %d", scanned, r.Scanned)
	}
	if acc.Sum() != r.Acc.Sum() {
		return fmt.Errorf("fleetshard: accumulator re-folded from journals does not match the sealed report")
	}
	return nil
}

// Degraded reports whether any part of the fleet's verdict is weaker
// than a clean full scan: failed or quarantined hosts, quarantined
// shards, degraded scans, or hosts never visited. Lost-and-recovered
// shards alone do not degrade the verdict — their hosts were re-scanned
// in full.
func (r *Report) Degraded() bool {
	return r.Failed > 0 || r.DegradedHosts > 0 || r.QuarantinedHosts > 0 ||
		r.NotScanned > 0 || len(r.QuarantinedShards) > 0
}
