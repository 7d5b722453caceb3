package pipeline

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAnalysisLinksNoSimulator: the analysis layers of Figure 1 (from
// the delegation files and MRT archives on) build without the simulator,
// so they can run over archives on disk; the serving stack builds
// without the simulator and without the pipeline and report that drive
// it, so a server links only what a snapshot needs. It walks each
// package's non-test imports inside the module and fails on any path to
// a forbidden package. report may reach the simulator only through
// pipeline: it names none of it directly.
func TestAnalysisLinksNoSimulator(t *testing.T) {
	const module = "parallellives/"
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	simulator := []string{"internal/worldsim", "internal/collector", "internal/registry"}
	driver := append(slices.Clone(simulator), "internal/pipeline", "internal/report")
	imports := func(rel string) []string {
		p, err := build.Default.ImportDir(filepath.Join(root, rel), 0)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		var out []string
		for _, imp := range p.Imports {
			if dep, ok := strings.CutPrefix(imp, module); ok {
				out = append(out, dep)
			}
		}
		return out
	}
	check := func(pkg string, forbidden []string) {
		// via maps each package reached to the package that imports it.
		via := map[string]string{"internal/" + pkg: ""}
		queue := []string{"internal/" + pkg}
		for len(queue) > 0 {
			rel := queue[0]
			queue = queue[1:]
			for _, dep := range imports(rel) {
				if _, seen := via[dep]; !seen {
					via[dep] = rel
					queue = append(queue, dep)
				}
			}
		}
		if pkg == "restore" && via["internal/delegation"] == "" {
			t.Fatal("restore does not reach delegation: the import walk is broken")
		}
		for _, bad := range forbidden {
			if _, ok := via[bad]; !ok {
				continue
			}
			chain := bad
			for at := via[bad]; at != ""; at = via[at] {
				chain = at + " → " + chain
			}
			t.Errorf("%s links %s: %s", pkg, bad, chain)
		}
	}
	for _, pkg := range []string{"bgpscan", "restore", "core", "intervals", "delegation", "faults", "mrt", "obs"} {
		check(pkg, simulator)
	}
	for _, pkg := range []string{"serve", "router", "lifestore", "loadgen"} {
		check(pkg, driver)
	}
	for _, dep := range imports("internal/report") {
		if slices.Contains(simulator, dep) {
			t.Errorf("report imports %s", dep)
		}
	}
}
