// Package profile defines named scan-policy profiles: bundles of every
// knob a GhostBuster deployment tunes — scan strictness (the CID-table
// traversal, noise filters, deadlines, retries), throughput (fleet
// workers, intra-host lanes), robustness (containment, breakers, the
// fleet error budget), and the resident daemon's re-scan interval — so
// the one-shot CLI and the monitoring daemon share one policy codepath
// instead of two drifting flag sets.
//
// Four built-ins cover the deployment spectrum (quick < standard <
// paranoid < forensic, by Rank); custom profiles are imported as
// checksummed JSON files through a Store. A profile can be **locked**:
// once locked, no runtime override, profile switch, or API call may
// weaken the detection posture — weakening attempts return explicit
// errors naming every violated field, never a silently-degraded scan.
// The adversarial contract (built-in name collisions, path traversal
// via profile names, corrupted profile files) fails loudly in every
// case: there is no fallback profile.
package profile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
)

// Noise-filter set names. Baseline keeps only the always-benign ADS
// markers; standard adds the outside-the-box churn classifiers, which
// filter away more findings and are therefore the *weaker* setting for
// lock purposes.
const (
	NoiseBaseline = "baseline"
	NoiseStandard = "standard"
)

// Profile is one named scan policy. The first field group is
// security-critical: on a locked profile these can only be overridden
// in the strengthening direction (see Apply). The second group is
// operational and freely overridable.
type Profile struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Rank orders profiles by strictness (quick 0 < standard 1 <
	// paranoid 2 < forensic 3). A locked profile can only be switched
	// to a profile of equal or higher rank.
	Rank int `json:"rank"`
	// Locked freezes the security-critical posture: overrides that
	// weaken it, switches to lower-ranked profiles, and unlock attempts
	// all return explicit errors. Locking is one-way at runtime.
	Locked bool `json:"locked,omitempty"`

	// --- security-critical (lock-protected) ---

	// Advanced selects the CID-table traversal for the process low
	// scan (catches DKOM). Disabling it weakens.
	Advanced bool `json:"advanced"`
	// NoiseFilter names the noise-filter set: NoiseBaseline or
	// NoiseStandard. Moving baseline → standard filters away more
	// findings and weakens.
	NoiseFilter string `json:"noiseFilter"`
	// Deadline bounds each host scan attempt in virtual time; zero is
	// unbounded. Introducing or shortening a deadline abandons scan
	// units and weakens.
	Deadline time.Duration `json:"deadlineNs"`
	// MaxRetries grants failed or degraded scans extra attempts.
	// Lowering it weakens.
	MaxRetries int `json:"maxRetries"`
	// Journal makes fleet sweeps durable and tamper-evident. Disabling
	// it weakens.
	Journal bool `json:"journal"`
	// Interval is the resident daemon's re-scan period per host (the
	// actual wait is jittered ±10% so evasive ghostware cannot predict
	// scan times). Lengthening it scans less often and weakens.
	Interval time.Duration `json:"intervalNs"`
	// Contain demotes per-unit faults to degraded reports instead of
	// failing the scan. Turning containment ON where the profile has it
	// off masks faults and weakens (forensic runs fail-loud).
	Contain bool `json:"contain"`
	// ScanCrossMem enables the kmem pool-carve scan unit (catches
	// memory-only ghostware scrubbed from every kernel list). Disabling
	// it weakens.
	ScanCrossMem bool `json:"scanCrossMem"`
	// ScanBootChain enables the boot-chain scan unit (catches bootkits
	// that sanitize inside boot-sector reads). Disabling it weakens.
	ScanBootChain bool `json:"scanBootChain"`
	// ScanRemovable enables the removable-device scan unit (the USBcat
	// counter). Disabling it weakens.
	ScanRemovable bool `json:"scanRemovable"`
	// RandomizeOrder randomizes the execution order of a sweep's scan
	// units, denying adaptive ghostware the timing oracle a fixed order
	// hands it. Disabling it weakens.
	RandomizeOrder bool `json:"randomizeOrder"`

	// --- operational (freely overridable) ---

	// Workers bounds concurrent host scans in a sweep.
	Workers int `json:"workers"`
	// HostParallelism fans each host's scan units (eight, up to
	// fourteen with every next-generation pair) across lanes.
	HostParallelism int `json:"hostParallelism"`
	// RetryBackoff is the first retry wait (doubling, saturating at
	// fleet.MaxRetryBackoff); zero takes the fleet default.
	RetryBackoff time.Duration `json:"retryBackoffNs,omitempty"`
	// BreakerThreshold quarantines a host after this many consecutive
	// failed attempts; zero disables the breaker.
	BreakerThreshold int `json:"breakerThreshold,omitempty"`
	// AbortAfterFailureFraction is the fleet error budget in [0,1];
	// zero disables it.
	AbortAfterFailureFraction float64 `json:"abortAfterFailureFraction,omitempty"`
}

// Builtins returns the four built-in profiles in rank order. The slice
// and its entries are fresh copies; callers may mutate them.
func Builtins() []Profile {
	return []Profile{
		{
			Name:        "quick",
			Description: "fast daily triage: bounded, filtered, no retries",
			Rank:        0,
			Advanced:    false,
			NoiseFilter: NoiseStandard,
			Deadline:    30 * time.Second,
			MaxRetries:  0,
			Journal:     false,
			Interval:    24 * time.Hour,
			Contain:     true,
			Workers:     8, HostParallelism: 8,
		},
		{
			Name:           "standard",
			Description:    "the default monitoring posture: advanced scans, journaled, retried",
			Rank:           1,
			Advanced:       true,
			NoiseFilter:    NoiseStandard,
			Deadline:       2 * time.Minute,
			MaxRetries:     1,
			Journal:        true,
			Interval:       6 * time.Hour,
			Contain:        true,
			ScanCrossMem:   true,
			ScanRemovable:  true,
			RandomizeOrder: true,
			Workers:        4, HostParallelism: 4,
			BreakerThreshold: 3,
		},
		{
			Name:           "paranoid",
			Description:    "unbounded advanced scans with raw findings, hourly",
			Rank:           2,
			Advanced:       true,
			NoiseFilter:    NoiseBaseline,
			Deadline:       0,
			MaxRetries:     2,
			Journal:        true,
			Interval:       time.Hour,
			Contain:        true,
			ScanCrossMem:   true,
			ScanBootChain:  true,
			ScanRemovable:  true,
			RandomizeOrder: true,
			Workers:        2, HostParallelism: 8,
			BreakerThreshold: 5,
		},
		{
			Name:           "forensic",
			Description:    "evidence-grade: sequential, fail-loud, every fault is an error",
			Rank:           3,
			Advanced:       true,
			NoiseFilter:    NoiseBaseline,
			Deadline:       0,
			MaxRetries:     3,
			Journal:        true,
			Interval:       15 * time.Minute,
			Contain:        false,
			ScanCrossMem:   true,
			ScanBootChain:  true,
			ScanRemovable:  true,
			RandomizeOrder: true,
			Workers:        1, HostParallelism: 1,
		},
	}
}

// Builtin resolves a built-in profile by name.
func Builtin(name string) (Profile, bool) {
	for _, p := range Builtins() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// IsBuiltin reports whether name collides with a built-in profile.
func IsBuiltin(name string) bool {
	_, ok := Builtin(name)
	return ok
}

// BuiltinNames returns the built-in profile names in rank order.
func BuiltinNames() []string {
	bs := Builtins()
	out := make([]string, len(bs))
	for i, p := range bs {
		out[i] = p.Name
	}
	return out
}

// ValidateName enforces the profile-name grammar: lowercase ASCII
// letters, digits, and single dashes, starting with a letter, at most
// 32 characters. Everything a hostile name could smuggle — path
// separators, "..", NUL, Windows device names, unicode confusables —
// fails this grammar, so a profile name can never escape the store
// directory or alias another file.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("profile: empty profile name")
	}
	if len(name) > 32 {
		return fmt.Errorf("profile: name %q exceeds 32 characters", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9' && i > 0:
		case c == '-' && i > 0 && i < len(name)-1:
		default:
			return fmt.Errorf("profile: invalid profile name %q: names are lowercase [a-z0-9-], must start with a letter, and cannot contain path separators or dots", name)
		}
	}
	return nil
}

// Validate checks a profile's internal consistency. Invalid profiles
// are rejected wherever they enter the system (import, override,
// decode) — a profile that validated once stays valid.
func (p Profile) Validate() error {
	if err := ValidateName(p.Name); err != nil {
		return err
	}
	switch p.NoiseFilter {
	case NoiseBaseline, NoiseStandard:
	default:
		return fmt.Errorf("profile %q: unknown noise-filter set %q (want %q or %q)", p.Name, p.NoiseFilter, NoiseBaseline, NoiseStandard)
	}
	if p.Rank < 0 {
		return fmt.Errorf("profile %q: negative rank %d", p.Name, p.Rank)
	}
	if p.Deadline < 0 || p.RetryBackoff < 0 {
		return fmt.Errorf("profile %q: negative duration", p.Name)
	}
	if p.Interval <= 0 {
		return fmt.Errorf("profile %q: re-scan interval must be positive (got %v)", p.Name, p.Interval)
	}
	if p.MaxRetries < 0 || p.BreakerThreshold < 0 || p.HostParallelism < 0 {
		return fmt.Errorf("profile %q: negative retry/breaker/parallelism setting", p.Name)
	}
	if p.Workers < 1 {
		return fmt.Errorf("profile %q: workers must be >= 1 (got %d)", p.Name, p.Workers)
	}
	if p.AbortAfterFailureFraction < 0 || p.AbortAfterFailureFraction > 1 {
		return fmt.Errorf("profile %q: abort fraction %v outside [0,1]", p.Name, p.AbortAfterFailureFraction)
	}
	return nil
}

// Override is a partial runtime reconfiguration of a profile: nil
// fields are left alone. CLI flags and the daemon's profile API both
// funnel through it, so locked-profile enforcement lives in exactly one
// place (Apply).
type Override struct {
	Advanced    *bool          `json:"advanced,omitempty"`
	NoiseFilter *string        `json:"noiseFilter,omitempty"`
	Deadline    *time.Duration `json:"deadlineNs,omitempty"`
	MaxRetries  *int           `json:"maxRetries,omitempty"`
	Journal     *bool          `json:"journal,omitempty"`
	Interval    *time.Duration `json:"intervalNs,omitempty"`
	Contain     *bool          `json:"contain,omitempty"`

	ScanCrossMem   *bool `json:"scanCrossMem,omitempty"`
	ScanBootChain  *bool `json:"scanBootChain,omitempty"`
	ScanRemovable  *bool `json:"scanRemovable,omitempty"`
	RandomizeOrder *bool `json:"randomizeOrder,omitempty"`

	Workers                   *int           `json:"workers,omitempty"`
	HostParallelism           *int           `json:"hostParallelism,omitempty"`
	RetryBackoff              *time.Duration `json:"retryBackoffNs,omitempty"`
	BreakerThreshold          *int           `json:"breakerThreshold,omitempty"`
	AbortAfterFailureFraction *float64       `json:"abortAfterFailureFraction,omitempty"`

	// Lock requests locking (true) or unlocking (false). Locking is
	// always allowed; unlocking a locked profile is always refused.
	Lock *bool `json:"lock,omitempty"`
}

// noiseRank orders noise-filter sets by how much they filter away.
func noiseRank(set string) int {
	if set == NoiseStandard {
		return 1
	}
	return 0
}

// Apply merges an override into the profile and returns the result.
// On a locked profile every security-critical field may only move in
// the strengthening direction; all violations are collected into one
// explicit error, and the profile is left untouched. This is the
// single enforcement point for the locked-profile contract — the CLI,
// the daemon API, and config files all pass through here.
func (p Profile) Apply(o Override) (Profile, error) {
	next := p
	var violations []string
	weak := func(field, detail string) {
		violations = append(violations, fmt.Sprintf("%s (%s)", field, detail))
	}

	if o.Advanced != nil {
		if p.Locked && p.Advanced && !*o.Advanced {
			weak("advanced", "disables the DKOM-catching CID-table traversal")
		} else {
			next.Advanced = *o.Advanced
		}
	}
	if o.NoiseFilter != nil {
		if p.Locked && noiseRank(*o.NoiseFilter) > noiseRank(p.NoiseFilter) {
			weak("noiseFilter", fmt.Sprintf("%s filters away more findings than %s", *o.NoiseFilter, p.NoiseFilter))
		} else {
			next.NoiseFilter = *o.NoiseFilter
		}
	}
	if o.Deadline != nil {
		d := *o.Deadline
		shorter := (p.Deadline == 0 && d != 0) || (p.Deadline != 0 && d != 0 && d < p.Deadline)
		if p.Locked && shorter {
			weak("deadline", "a shorter scan deadline abandons scan units")
		} else {
			next.Deadline = d
		}
	}
	if o.MaxRetries != nil {
		if p.Locked && *o.MaxRetries < p.MaxRetries {
			weak("maxRetries", "fewer retries leaves transient faults unresolved")
		} else {
			next.MaxRetries = *o.MaxRetries
		}
	}
	if o.Journal != nil {
		if p.Locked && p.Journal && !*o.Journal {
			weak("journal", "disables the durable, tamper-evident sweep record")
		} else {
			next.Journal = *o.Journal
		}
	}
	if o.Interval != nil {
		if p.Locked && *o.Interval > p.Interval {
			weak("interval", "a longer re-scan interval monitors less often")
		} else {
			next.Interval = *o.Interval
		}
	}
	if o.Contain != nil {
		if p.Locked && !p.Contain && *o.Contain {
			weak("contain", "containment masks faults a fail-loud profile must surface")
		} else {
			next.Contain = *o.Contain
		}
	}
	if o.ScanCrossMem != nil {
		if p.Locked && p.ScanCrossMem && !*o.ScanCrossMem {
			weak("scanCrossMem", "disables the pool carve that catches memory-only ghostware")
		} else {
			next.ScanCrossMem = *o.ScanCrossMem
		}
	}
	if o.ScanBootChain != nil {
		if p.Locked && p.ScanBootChain && !*o.ScanBootChain {
			weak("scanBootChain", "disables the boot-chain truth source that catches bootkits")
		} else {
			next.ScanBootChain = *o.ScanBootChain
		}
	}
	if o.ScanRemovable != nil {
		if p.Locked && p.ScanRemovable && !*o.ScanRemovable {
			weak("scanRemovable", "disables the removable-device truth source")
		} else {
			next.ScanRemovable = *o.ScanRemovable
		}
	}
	if o.RandomizeOrder != nil {
		if p.Locked && p.RandomizeOrder && !*o.RandomizeOrder {
			weak("randomizeOrder", "a fixed scan order hands adaptive ghostware a timing oracle")
		} else {
			next.RandomizeOrder = *o.RandomizeOrder
		}
	}
	if o.Lock != nil {
		if !*o.Lock && p.Locked {
			weak("locked", "a locked profile cannot be unlocked at runtime")
		} else if *o.Lock {
			next.Locked = true
		}
	}

	if o.Workers != nil {
		next.Workers = *o.Workers
	}
	if o.HostParallelism != nil {
		next.HostParallelism = *o.HostParallelism
	}
	if o.RetryBackoff != nil {
		next.RetryBackoff = *o.RetryBackoff
	}
	if o.BreakerThreshold != nil {
		next.BreakerThreshold = *o.BreakerThreshold
	}
	if o.AbortAfterFailureFraction != nil {
		next.AbortAfterFailureFraction = *o.AbortAfterFailureFraction
	}

	if len(violations) > 0 {
		return Profile{}, fmt.Errorf("profile %q is locked: override would weaken %s", p.Name, strings.Join(violations, ", "))
	}
	if err := next.Validate(); err != nil {
		return Profile{}, err
	}
	return next, nil
}

// Switch validates a transition from the active profile to next. A
// locked active profile only admits targets of equal or higher rank,
// and the lock carries over to the target — switching profiles is not
// an unlock path.
func Switch(active, next Profile) (Profile, error) {
	if active.Locked {
		if next.Rank < active.Rank {
			return Profile{}, fmt.Errorf("profile %q is locked at rank %d: cannot switch to weaker profile %q (rank %d)",
				active.Name, active.Rank, next.Name, next.Rank)
		}
		next.Locked = true
	}
	return next, nil
}

// Filters returns the profile's noise-filter set.
func (p Profile) Filters() []core.NoiseFilter {
	if p.NoiseFilter == NoiseStandard {
		return core.StandardNoiseFilters()
	}
	return core.BaselineNoiseFilters()
}

// ConfigureDetector applies the profile to a one-shot detector — the
// CLI's single-machine scan path. Usable as a method value for
// fleet.Manager.ConfigureDetector, where it runs after the sweep
// defaults and therefore wins.
func (p Profile) ConfigureDetector(d *core.Detector) {
	d.Advanced = p.Advanced
	d.Contain = p.Contain
	d.Deadline = p.Deadline
	d.Opts.NoiseFilters = p.Filters()
	d.Units = p.Units()
	if p.RandomizeOrder {
		d.OrderSeed = nextOrderSeed()
	}
}

// Units maps the profile's scan-unit switches to the detector bitmask.
func (p Profile) Units() core.UnitSet {
	var u core.UnitSet
	if p.ScanCrossMem {
		u |= core.UnitCrossMem
	}
	if p.ScanBootChain {
		u |= core.UnitBootChain
	}
	if p.ScanRemovable {
		u |= core.UnitRemovable
	}
	return u
}

// orderSeedCounter feeds nextOrderSeed. A process-local counter keeps
// runs reproducible (the Nth configured detector always draws seed N)
// while giving every sweep a different unit order — the property that
// matters is that ghostware on the scanned machine cannot predict the
// order, and it never sees this counter.
var orderSeedCounter atomic.Int64

func nextOrderSeed() int64 { return orderSeedCounter.Add(1) }

// ConfigureManager applies the profile to a fleet manager — the sweep
// path both the CLI fleet mode and the resident daemon run. The worker
// count (p.Workers) is not a manager field: callers pass it to the
// sweep entry point.
func (p Profile) ConfigureManager(mgr *fleet.Manager) {
	mgr.HostParallelism = p.HostParallelism
	mgr.MaxRetries = p.MaxRetries
	mgr.RetryBackoff = p.RetryBackoff
	mgr.HostDeadline = p.Deadline
	mgr.BreakerThreshold = p.BreakerThreshold
	mgr.AbortAfterFailureFraction = p.AbortAfterFailureFraction
	mgr.ConfigureDetector = p.ConfigureDetector
}

// Diagnose renders the profile as sorted key→value diagnostics, the
// quick-diagnostics surface the daemon's profile API and the CLI
// expose (modeled on the rcc configuration diagnostics contract).
func Diagnose(p Profile) map[string]string {
	return map[string]string{
		"profile-name":           p.Name,
		"profile-rank":           strconv.Itoa(p.Rank),
		"profile-locked":         strconv.FormatBool(p.Locked),
		"profile-advanced":       strconv.FormatBool(p.Advanced),
		"profile-noise-filter":   p.NoiseFilter,
		"profile-deadline":       p.Deadline.String(),
		"profile-max-retries":    strconv.Itoa(p.MaxRetries),
		"profile-journal":        strconv.FormatBool(p.Journal),
		"profile-interval":       p.Interval.String(),
		"profile-contain":        strconv.FormatBool(p.Contain),
		"profile-scan-crossmem":  strconv.FormatBool(p.ScanCrossMem),
		"profile-scan-bootchain": strconv.FormatBool(p.ScanBootChain),
		"profile-scan-removable": strconv.FormatBool(p.ScanRemovable),
		"profile-random-order":   strconv.FormatBool(p.RandomizeOrder),
		"profile-workers":        strconv.Itoa(p.Workers),
		"profile-host-lanes":     strconv.Itoa(p.HostParallelism),
		"profile-breaker":        strconv.Itoa(p.BreakerThreshold),
		"profile-abort-fraction": strconv.FormatFloat(p.AbortAfterFailureFraction, 'g', -1, 64),
	}
}

// DiagnoseKeys returns Diagnose's keys in sorted order, for stable
// text rendering.
func DiagnoseKeys(d map[string]string) []string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
