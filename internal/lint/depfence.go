package lint

import (
	"strconv"
	"strings"
)

// DepFence enforces the repo's layering DAG. Every internal package must
// appear in the table below with the exact set of intra-module imports
// it is allowed; an import outside the set — or a new internal package
// missing from the table — is a finding. The table is the architecture,
// checked: refactors cannot quietly invert a layer (e.g. dsp growing a
// dependency on experiments, or a generation package importing serve).
//
// Binaries (cmd/*) and examples may import any internal package through
// its public API but never each other. _test.go files and external test
// packages are exempt: tests may reach across layers for fixtures.
var DepFence = &Analyzer{
	Name: "depfence",
	Doc:  "enforce the package layering DAG against a checked import table",
	Run:  runDepFence,
}

const modulePrefix = "vvd/"

// depfenceTable is the layering DAG: package → allowed intra-module
// imports. Leaves (mathx, metrics, room, dsp/fft) import nothing.
// internal/serve sits above core and is never imported by the
// generation stack; internal/lint is a self-contained toolchain leaf.
var depfenceTable = map[string][]string{
	"vvd":                         {},
	"vvd/internal/mathx":          {},
	"vvd/internal/mathx/gemm":     {},
	"vvd/internal/metrics":        {},
	"vvd/internal/room":           {},
	"vvd/internal/dsp/fft":        {},
	"vvd/internal/dsp":            {"vvd/internal/dsp/fft"},
	"vvd/internal/phy":            {"vvd/internal/dsp"},
	"vvd/internal/camera":         {"vvd/internal/room"},
	"vvd/internal/report":         {"vvd/internal/metrics"},
	"vvd/internal/nn":             {"vvd/internal/mathx", "vvd/internal/mathx/gemm"},
	"vvd/internal/channel":        {"vvd/internal/dsp", "vvd/internal/phy", "vvd/internal/room"},
	"vvd/internal/estimate":       {"vvd/internal/channel", "vvd/internal/dsp", "vvd/internal/mathx", "vvd/internal/phy", "vvd/internal/room"},
	"vvd/internal/kalman":         {"vvd/internal/channel", "vvd/internal/mathx", "vvd/internal/phy", "vvd/internal/room"},
	"vvd/internal/dataset":        {"vvd/internal/camera", "vvd/internal/channel", "vvd/internal/dsp", "vvd/internal/estimate", "vvd/internal/phy", "vvd/internal/room"},
	"vvd/internal/core":           {"vvd/internal/camera", "vvd/internal/dataset", "vvd/internal/metrics", "vvd/internal/nn"},
	"vvd/internal/serve":          {"vvd/internal/core", "vvd/internal/dataset", "vvd/internal/nn"},
	"vvd/internal/wire":           {"vvd/internal/serve"},
	"vvd/internal/shard":          {"vvd/internal/wire"},
	"vvd/internal/scenario":       {"vvd/internal/channel", "vvd/internal/core", "vvd/internal/dataset", "vvd/internal/estimate", "vvd/internal/kalman", "vvd/internal/metrics", "vvd/internal/phy", "vvd/internal/room"},
	"vvd/internal/experiments":    {"vvd/internal/camera", "vvd/internal/channel", "vvd/internal/core", "vvd/internal/dataset", "vvd/internal/estimate", "vvd/internal/kalman", "vvd/internal/metrics", "vvd/internal/nn", "vvd/internal/phy", "vvd/internal/report", "vvd/internal/room", "vvd/internal/scenario"},
	"vvd/internal/store":          {},
	"vvd/internal/store/registry": {"vvd/internal/core", "vvd/internal/dataset", "vvd/internal/store"},
	"vvd/internal/lint":           {},
	"vvd/internal/lint/linttest":  {"vvd/internal/lint"},
}

func runDepFence(pass *Pass) error {
	path := pass.Pkg.Path()
	if strings.HasSuffix(path, "_test") {
		return nil // external test packages may reach across layers
	}
	isBinary := strings.HasPrefix(path, "vvd/cmd/") || strings.HasPrefix(path, "vvd/examples/")
	allowed, known := allowedSet(path)
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, imp := range file.Imports {
			target, err := strconv.Unquote(imp.Path.Value)
			if err != nil || (target != "vvd" && !strings.HasPrefix(target, modulePrefix)) {
				continue
			}
			switch {
			case isBinary:
				if strings.HasPrefix(target, "vvd/cmd/") || strings.HasPrefix(target, "vvd/examples/") {
					pass.Reportf(imp.Pos(), "binary package %s imports binary package %s: binaries share code through internal packages, never each other", path, target)
				}
			case !known:
				pass.Reportf(imp.Pos(), "package %s is not in the depfence layering table: add it to depfenceTable (internal/lint/depfence.go) with its allowed imports", path)
				return nil // one finding is enough to demand the table entry
			case !allowed[target]:
				pass.Reportf(imp.Pos(), "import of %s from %s violates the layering table: if the architecture really moved, update depfenceTable (internal/lint/depfence.go)", target, path)
			}
		}
	}
	return nil
}

func allowedSet(path string) (map[string]bool, bool) {
	imports, ok := depfenceTable[path]
	if !ok {
		return nil, false
	}
	set := make(map[string]bool, len(imports))
	for _, im := range imports {
		set[im] = true
	}
	return set, true
}
