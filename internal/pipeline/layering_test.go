package pipeline

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalysisLinksNoSimulator: the analysis layers of Figure 1 (from
// the delegation files and MRT archives on) build without the simulator,
// so they can run over archives on disk. It walks each package's
// non-test imports inside the module and fails on any path to worldsim,
// collector or registry.
func TestAnalysisLinksNoSimulator(t *testing.T) {
	const module = "parallellives/"
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	simulator := []string{"internal/worldsim", "internal/collector", "internal/registry"}
	for _, pkg := range []string{"bgpscan", "restore", "core", "intervals", "delegation", "faults", "mrt", "obs"} {
		// via maps each package reached to the package that imports it.
		via := map[string]string{"internal/" + pkg: ""}
		queue := []string{"internal/" + pkg}
		for len(queue) > 0 {
			rel := queue[0]
			queue = queue[1:]
			p, err := build.Default.ImportDir(filepath.Join(root, rel), 0)
			if err != nil {
				t.Fatalf("%s: %v", rel, err)
			}
			for _, imp := range p.Imports {
				dep, ok := strings.CutPrefix(imp, module)
				if _, seen := via[dep]; ok && !seen {
					via[dep] = rel
					queue = append(queue, dep)
				}
			}
		}
		if pkg == "restore" && via["internal/delegation"] == "" {
			t.Fatal("restore does not reach delegation: the import walk is broken")
		}
		for _, sim := range simulator {
			if _, ok := via[sim]; !ok {
				continue
			}
			chain := sim
			for at := via[sim]; at != ""; at = via[at] {
				chain = at + " → " + chain
			}
			t.Errorf("%s links the simulator: %s", pkg, chain)
		}
	}
}
