package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ghostbuster/internal/supervise"
)

func testPolicy() supervise.Policy {
	return supervise.Policy{Deadline: 200 * time.Millisecond, Misses: 3}
}

// TestSweepAdmissionShedsWith429: with the single sweep slot held and a
// zero-depth queue, a sweep request is shed immediately with 429 and a
// parseable Retry-After header — the overload contract.
func TestSweepAdmissionShedsWith429(t *testing.T) {
	d, srv := newServer(t, Config{Seed: 7, AdmitQueue: 0})
	if err := d.Register(HostSpec{Name: "host-a", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	release, err := d.admit.Acquire(context.Background())
	if err != nil {
		t.Fatalf("priming the slot: %v", err)
	}
	defer release()

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated sweep POST returned %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q is not a positive integer of seconds", ra)
	}
	if m := d.Snapshot(); m.SweepRequestsShed == 0 {
		t.Error("shed request not counted in metrics")
	}
}

// TestSweepAdmissionQueuesBehindSlot: with queue depth available, a
// request parks behind the held slot and succeeds once it frees — the
// queue absorbs bursts instead of shedding them.
func TestSweepAdmissionQueuesBehindSlot(t *testing.T) {
	d, srv := newServer(t, Config{Seed: 7, AdmitQueue: 2})
	if err := d.Register(HostSpec{Name: "host-a", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	release, err := d.admit.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", nil)
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		done <- resp
	}()
	time.Sleep(50 * time.Millisecond) // let the request park in the queue
	release()
	resp, ok := <-done
	if !ok {
		t.Fatal("queued request never completed")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queued sweep POST returned %d after the slot freed, want 200", resp.StatusCode)
	}
}

// TestSweepAdmissionDeadlineExpiresInQueue: a queued request past its
// RequestDeadline is evicted with 503 (plus Retry-After) instead of
// waiting forever behind a stuck sweep.
func TestSweepAdmissionDeadlineExpiresInQueue(t *testing.T) {
	d, srv := newServer(t, Config{Seed: 7, AdmitQueue: 2, RequestDeadline: 50 * time.Millisecond})
	release, err := d.admit.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired request returned %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("expired request carries no Retry-After hint")
	}
	if m := d.Snapshot(); m.SweepRequestsTimedOut == 0 {
		t.Error("queue timeout not counted in metrics")
	}
}

// TestReadyzTracksDraining: readyz is 200/ready before shutdown and
// 503/draining after — the signal a load balancer needs to route away
// before the listener actually closes.
func TestReadyzTracksDraining(t *testing.T) {
	d, srv := newServer(t, Config{Seed: 7})
	get := func() (int, Readiness) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rd Readiness
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf.Bytes(), &rd); err != nil {
			t.Fatalf("readyz body %q: %v", buf.String(), err)
		}
		return resp.StatusCode, rd
	}
	if code, rd := get(); code != http.StatusOK || !rd.Ready || !rd.Live || rd.Draining {
		t.Fatalf("fresh daemon readyz = %d %+v, want 200 ready", code, rd)
	}

	d.Shutdown()
	if code, rd := get(); code != http.StatusServiceUnavailable || rd.Ready || !rd.Draining {
		t.Fatalf("post-shutdown readyz = %d %+v, want 503 draining", code, rd)
	}

	// The drained gate also turns sweep requests away with 503.
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("sweep POST while draining returned %d, want 503", resp.StatusCode)
	}
}

// TestOversizedPostBodiesRejected: the body caps on the JSON POST
// routes refuse megabyte-plus payloads outright.
func TestOversizedPostBodiesRejected(t *testing.T) {
	_, srv := newServer(t, Config{Seed: 7})
	huge := `{"name":"` + strings.Repeat("a", maxBodyBytes+1) + `"}`
	for _, route := range []string{"/v1/hosts", "/v1/profile"} {
		resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s accepted an oversized body: %d", route, resp.StatusCode)
		}
	}
}

// TestSlowSubscriberDropsWithoutStallingSweeps: a subscriber that never
// reads must not block sweep execution — its events are dropped and
// counted, the sweep completes, and DroppedEvents only ever grows.
func TestSlowSubscriberDropsWithoutStallingSweeps(t *testing.T) {
	d := newDaemon(t, Config{Seed: 7})
	for _, name := range []string{"host-a", "host-b", "host-c"} {
		if err := d.Register(HostSpec{Name: name, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Never read from ch: the 64-slot buffer fills, then drops begin.
	_, cancel := d.Subscribe()
	defer cancel()

	prev := 0
	for i := 0; i < 40; i++ {
		if _, err := d.SweepNow(); err != nil {
			t.Fatalf("sweep %d under a stalled subscriber: %v", i, err)
		}
		if dropped := d.Snapshot().DroppedEvents; dropped < prev {
			t.Fatalf("DroppedEvents went backwards: %d -> %d", prev, dropped)
		} else {
			prev = dropped
		}
	}
	if prev == 0 {
		t.Fatal("40 sweeps against a never-reading subscriber dropped nothing")
	}
}

// TestSubscriberChurnDuringSweeps: subscribers attaching and detaching
// while sweeps stream events must never deadlock or double-close; run
// under -race this also proves the broadcast path is data-race free.
func TestSubscriberChurnDuringSweeps(t *testing.T) {
	d := newDaemon(t, Config{Seed: 7})
	if err := d.Register(HostSpec{Name: "host-a", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, cancel := d.Subscribe()
				// Drain a little, then walk away mid-stream.
				for j := 0; j < 3; j++ {
					select {
					case <-ch:
					case <-time.After(time.Millisecond):
					}
				}
				cancel()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := d.SweepNow(); err != nil {
			t.Fatalf("sweep %d during subscriber churn: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDaemonForwardsSupervisionKnobs: the daemon's shard config carries
// the watchdog and jitter settings through to the coordinator verbatim,
// and the manager behind an unsharded sweep gets the same jitter seed
// alongside the profile's retry knobs.
func TestDaemonForwardsSupervisionKnobs(t *testing.T) {
	d := newDaemon(t, Config{
		Seed:              7,
		Shards:            2,
		Watchdog:          testPolicy(),
		BackoffJitterSeed: 99,
	})
	cfg := d.shardConfig(1, d.ActiveProfile(), &SweepInfo{ID: 1})
	if cfg.Watchdog != testPolicy() {
		t.Errorf("watchdog not forwarded: %+v", cfg.Watchdog)
	}
	if cfg.BackoffJitterSeed != 99 {
		t.Errorf("jitter seed not forwarded: %d", cfg.BackoffJitterSeed)
	}
	prof := d.ActiveProfile()
	mgr := d.newManager(prof, nil)
	if mgr.BackoffJitterSeed != 99 {
		t.Errorf("unsharded sweep dropped the jitter seed: %d", mgr.BackoffJitterSeed)
	}
	if mgr.MaxRetries != prof.MaxRetries || mgr.RetryBackoff != prof.RetryBackoff {
		t.Errorf("unsharded manager retries %d/%v, want the profile's %d/%v",
			mgr.MaxRetries, mgr.RetryBackoff, prof.MaxRetries, prof.RetryBackoff)
	}
}

// TestShardedSweepUnderWatchdog: a healthy sharded daemon sweep with
// the watchdog armed completes normally — idle supervision must not
// perturb results or digests.
func TestShardedSweepUnderWatchdog(t *testing.T) {
	ref := newDaemon(t, Config{Seed: 7, Shards: 2})
	sup := newDaemon(t, Config{Seed: 7, Shards: 2, Watchdog: testPolicy(), BackoffJitterSeed: 3})
	for _, d := range []*Daemon{ref, sup} {
		for _, name := range []string{"host-a", "host-b", "host-c", "host-d"} {
			if err := d.Register(HostSpec{Name: name, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := ref.SweepNow()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sup.SweepNow()
	if err != nil {
		t.Fatalf("supervised sweep: %v", err)
	}
	if got.MergedDigest != want.MergedDigest || got.Scanned != want.Scanned {
		t.Errorf("idle supervision changed the sweep: %q/%d vs %q/%d",
			got.MergedDigest, got.Scanned, want.MergedDigest, want.Scanned)
	}
}
