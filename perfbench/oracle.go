package main

import (
	"fmt"
	"strings"

	"ghostbuster/internal/core"
	"ghostbuster/internal/ghostware"
)

// expectation is what a host's scan must report as hidden, taken from
// the installed ghostware model's ground-truth accessors (never from
// the detector). A clean host has the zero expectation.
type expectation struct {
	files, asePs, procs, mods, memOnly, boot, usb []string
	massHiding                                    bool
}

func expect(g *ghostware.Composite) expectation {
	var e expectation
	if g == nil {
		return e
	}
	for _, f := range g.HiddenFiles() {
		e.files = append(e.files, strings.ToUpper(f))
	}
	e.asePs = g.HiddenASEPs()
	e.procs = g.HiddenProcs()
	e.mods = g.HiddenModules()
	e.memOnly = g.MemOnlyProcs()
	e.boot = g.BootRegions()
	for _, f := range g.RemovableFiles() {
		e.usb = append(e.usb, strings.ToUpper(f))
	}
	e.massHiding = len(e.files) > core.DefaultMassHidingThreshold
	return e
}

// mismatches counts disagreements between a host's reports and its
// planted truth: every planted artifact not reported, every non-noise
// hidden finding that was never planted, and a wrong mass-hiding flag.
// Matching follows the ghostfuzz oracle: exact IDs for files, key/value
// prefix-suffix for ASEP hooks, ": NAME" suffix for processes, base-name
// substring for modules, "REGION:" prefix for boot regions. The first
// few problems are returned as text for the failure message.
func mismatches(e expectation, reports []*core.Report) (int, []string) {
	var n int
	var why []string
	miss := func(format string, args ...any) {
		n++
		if len(why) < 4 {
			why = append(why, fmt.Sprintf(format, args...))
		}
	}
	var fileR, asepR, procR, modR, memR, bootR, usbR []core.Finding
	massFlag := false
	for _, r := range reports {
		switch {
		case r.Kind == core.KindFiles && r.LowView == core.ViewRawRemovable:
			usbR = r.Hidden
		case r.Kind == core.KindFiles:
			fileR = r.Hidden
			massFlag = r.MassHiding != nil
		case r.Kind == core.KindASEPHooks:
			asepR = r.Hidden
		case r.Kind == core.KindProcesses && r.LowView == core.ViewKernelCarve:
			memR = r.Hidden
		case r.Kind == core.KindProcesses:
			procR = r.Hidden
		case r.Kind == core.KindModules:
			modR = r.Hidden
		case r.Kind == core.KindBootChain:
			bootR = r.Hidden
		}
	}
	match := func(what string, want []string, got []core.Finding, ok func(id, want string) bool) {
		used := make([]bool, len(got))
		for _, w := range want {
			hit := false
			for i, f := range got {
				if !used[i] && ok(f.ID, w) {
					used[i], hit = true, true
					break
				}
			}
			if !hit {
				miss("%s not reported: %q", what, w)
			}
		}
		for i, f := range got {
			if used[i] {
				continue
			}
			// Duplicate planted names (several bootkit atoms patch one
			// region) are one finding; anything else is a false positive.
			planted := false
			for _, w := range want {
				planted = planted || ok(f.ID, w)
			}
			if !planted {
				miss("unplanted %s reported: %q", what, f.ID)
			}
		}
	}
	exact := func(id, w string) bool { return id == w }
	procName := func(id, w string) bool { return strings.HasSuffix(id, ": "+strings.ToUpper(w)) }
	match("file", e.files, fileR, exact)
	match("ASEP hook", e.asePs, asepR, hookMatches)
	match("process", e.procs, procR, procName)
	match("module", e.mods, modR, strings.Contains)
	match("memory-only process", e.memOnly, memR, procName)
	match("boot region", dedupe(e.boot), bootR, func(id, w string) bool { return strings.HasPrefix(id, w+":") })
	match("removable file", e.usb, usbR, exact)
	if massFlag != e.massHiding {
		miss("mass-hiding flag %v, planted %d hidden files", massFlag, len(e.files))
	}
	return n, why
}

// hookMatches matches a ground-truth hook spec ("KEY" or "KEY|VALUE")
// against an upper-cased finding ID ("KEY -> VALUE").
func hookMatches(id, spec string) bool {
	keyPart, valPart := spec, ""
	if i := strings.IndexByte(spec, '|'); i >= 0 {
		keyPart, valPart = spec[:i], spec[i+1:]
	}
	if !strings.HasPrefix(id, strings.ToUpper(keyPart)) {
		return false
	}
	return valPart == "" || strings.HasSuffix(id, strings.ToUpper(valPart))
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// infected is the host-level verdict: any non-noise hidden finding.
func infected(reports []*core.Report) bool {
	for _, r := range reports {
		if len(r.Hidden) > 0 {
			return true
		}
	}
	return false
}

// degraded reports whether any scan unit of the reports was lost.
func degraded(reports []*core.Report) bool {
	for _, r := range reports {
		if r.Degraded() {
			return true
		}
	}
	return false
}
