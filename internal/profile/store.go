// The profile store: custom profiles as checksummed JSON files in one
// directory, resolved by name alongside the built-ins. The adversarial
// contract is enforced here:
//
//   - a profile name never becomes a path without passing ValidateName,
//     so traversal names ("../evil", "a/b") cannot escape the store;
//   - an import whose name collides with a built-in is refused — the
//     built-ins cannot be shadowed by look-alike files;
//   - a stored file that fails to parse, fails strict field checking,
//     carries trailing garbage, or fails its content checksum is a loud
//     error naming the file. There is no fallback profile: a corrupted
//     "paranoid" resolves to an error, never to something weaker.
package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ghostbuster/internal/journal"
)

// stored is the on-disk form: the profile plus a content checksum over
// its canonical serialization. Any bit flip in a stored field — even
// one that still parses as valid JSON — breaks the checksum.
type stored struct {
	Profile
	Checksum string `json:"checksum,omitempty"`
}

// Checksum returns the profile's canonical content checksum: SHA-256
// over its canonical JSON serialization, hex-encoded (the same hash
// the sweep journal uses).
func Checksum(p Profile) string {
	data, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("profile: checksum marshal: %v", err))
	}
	return journal.Hash(data)
}

// Encode serializes a profile in the stored form, checksum included.
func Encode(p Profile) []byte {
	data, err := json.MarshalIndent(stored{Profile: p, Checksum: Checksum(p)}, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("profile: encode marshal: %v", err))
	}
	return append(data, '\n')
}

// Decode parses a stored profile, requiring a valid checksum — the
// form for state the system wrote itself (store files, the daemon's
// persisted active profile). Corruption of any kind is a loud error.
func Decode(data []byte) (Profile, error) {
	return parse(data, true)
}

// storedKeys is the exact-case key set of the stored form. Go's JSON
// decoder matches struct fields case-insensitively, so without this
// check a bit flip in a key's letter case ("breakeRThreshold") would
// decode to identical content and re-checksum cleanly — the one
// single-bit corruption the content checksum cannot see.
var storedKeys = map[string]bool{
	"name": true, "description": true, "rank": true, "locked": true,
	"advanced": true, "noiseFilter": true, "deadlineNs": true,
	"maxRetries": true, "journal": true, "intervalNs": true,
	"contain": true, "workers": true, "hostParallelism": true,
	"scanCrossMem": true, "scanBootChain": true, "scanRemovable": true,
	"randomizeOrder": true,
	"retryBackoffNs": true, "breakerThreshold": true,
	"abortAfterFailureFraction": true, "checksum": true,
}

// parse is the single profile deserializer. Strict on structure
// (unknown or case-mangled fields and trailing bytes are errors),
// strict on content (Validate), and — when requireChecksum, or
// whenever a checksum is present — strict on integrity.
func parse(data []byte, requireChecksum bool) (Profile, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return Profile{}, fmt.Errorf("profile: corrupt profile data: %w", err)
	}
	for k := range raw {
		if !storedKeys[k] {
			return Profile{}, fmt.Errorf("profile: corrupt profile data: unknown field %q", k)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var st stored
	if err := dec.Decode(&st); err != nil {
		return Profile{}, fmt.Errorf("profile: corrupt profile data: %w", err)
	}
	if dec.More() {
		return Profile{}, fmt.Errorf("profile: corrupt profile data: trailing bytes after profile object")
	}
	if st.Checksum == "" && requireChecksum {
		return Profile{}, fmt.Errorf("profile %q: missing content checksum", st.Name)
	}
	if st.Checksum != "" {
		if got := Checksum(st.Profile); got != st.Checksum {
			return Profile{}, fmt.Errorf("profile %q: checksum mismatch (recorded %.12s, content %.12s) — file corrupted or tampered",
				st.Name, st.Checksum, got)
		}
	}
	if err := st.Profile.Validate(); err != nil {
		return Profile{}, err
	}
	return st.Profile, nil
}

// Store resolves profiles by name: built-ins first, then checksummed
// JSON files under Dir. A zero-dir store serves only the built-ins.
type Store struct {
	Dir string
}

// NewStore returns a store over dir; empty dir means built-ins only.
func NewStore(dir string) *Store { return &Store{Dir: dir} }

// path maps a validated profile name to its file. Callers must have
// passed name through ValidateName first.
func (s *Store) path(name string) string {
	return filepath.Join(s.Dir, name+".json")
}

// Resolve returns the named profile: a built-in, or an imported file.
// Unknown names, invalid names, and corrupted files are all loud,
// distinct errors; nothing ever falls back to a different profile.
func (s *Store) Resolve(name string) (Profile, error) {
	if err := ValidateName(name); err != nil {
		return Profile{}, err
	}
	if p, ok := Builtin(name); ok {
		return p, nil
	}
	if s.Dir == "" {
		return Profile{}, fmt.Errorf("profile: unknown profile %q (built-ins: %s; no profile directory configured)",
			name, strings.Join(BuiltinNames(), ", "))
	}
	data, err := os.ReadFile(s.path(name))
	if os.IsNotExist(err) {
		return Profile{}, fmt.Errorf("profile: unknown profile %q (built-ins: %s; nothing imported under %s)",
			name, strings.Join(BuiltinNames(), ", "), s.Dir)
	}
	if err != nil {
		return Profile{}, fmt.Errorf("profile: reading %s: %w", s.path(name), err)
	}
	p, err := parse(data, true)
	if err != nil {
		return Profile{}, fmt.Errorf("profile: %s: %w", s.path(name), err)
	}
	if p.Name != name {
		return Profile{}, fmt.Errorf("profile: %s declares name %q — store file renamed or tampered", s.path(name), p.Name)
	}
	return p, nil
}

// Import validates a profile payload (flat JSON, checksum optional on
// input) and persists it to the store under its declared name. The
// built-in namespace is protected: importing "paranoid" is an error,
// not a shadow.
func (s *Store) Import(data []byte) (Profile, error) {
	p, err := parse(data, false)
	if err != nil {
		return Profile{}, err
	}
	if IsBuiltin(p.Name) {
		return Profile{}, fmt.Errorf("profile: name %q collides with a built-in profile — built-ins cannot be overridden", p.Name)
	}
	if s.Dir == "" {
		return Profile{}, fmt.Errorf("profile: cannot import %q: no profile directory configured", p.Name)
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return Profile{}, fmt.Errorf("profile: creating store directory: %w", err)
	}
	if err := os.WriteFile(s.path(p.Name), Encode(p), 0o644); err != nil {
		return Profile{}, fmt.Errorf("profile: writing %s: %w", s.path(p.Name), err)
	}
	return p, nil
}

// Export returns the named profile in the stored form (checksummed),
// suitable for re-import elsewhere.
func (s *Store) Export(name string) ([]byte, error) {
	p, err := s.Resolve(name)
	if err != nil {
		return nil, err
	}
	return Encode(p), nil
}

// Delete removes an imported profile. Built-ins cannot be deleted.
func (s *Store) Delete(name string) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	if IsBuiltin(name) {
		return fmt.Errorf("profile: cannot delete built-in profile %q", name)
	}
	if s.Dir == "" {
		return fmt.Errorf("profile: unknown profile %q (no profile directory configured)", name)
	}
	if err := os.Remove(s.path(name)); err != nil {
		return fmt.Errorf("profile: deleting %q: %w", name, err)
	}
	return nil
}

// List returns every resolvable profile, built-ins first (rank order)
// then imports (name order). A corrupted store file fails the whole
// listing loudly — a store with a tampered file in it is not partially
// trustworthy.
func (s *Store) List() ([]Profile, error) {
	out := Builtins()
	if s.Dir == "" {
		return out, nil
	}
	entries, err := os.ReadDir(s.Dir)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, fmt.Errorf("profile: listing %s: %w", s.Dir, err)
	}
	var names []string
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || e.IsDir() {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p, err := s.Resolve(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
