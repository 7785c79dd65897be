package metrics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEnterTilesPhases: Enter closes the open phase and opens the next,
// Record closes the last, so a trace whose first Enter follows its start
// at once is covered whole; IOOnly suppresses Enter.
func TestEnterTilesPhases(t *testing.T) {
	tr := StartDetached(OpLookup)
	tr.Enter(PhaseIndexProbe)
	time.Sleep(2 * time.Millisecond)
	tr.Enter(PhaseValidate)
	tr.IOOnlyBegin()
	tr.Enter(PhaseMemProbe) // a nested read's phase: suppressed
	time.Sleep(2 * time.Millisecond)
	tr.IOOnlyEnd()
	t0 := tr.Now()
	tr.Since(PhaseBlockLoad, t0)
	tr.Enter(PhaseIndexProbe)
	rec := tr.Record()

	counts := map[string]uint32{}
	for _, p := range rec.Phases {
		counts[p.Phase] = p.Count
	}
	want := map[string]uint32{"index_probe": 2, "validate": 1, "block_load": 1}
	if len(counts) != len(want) {
		t.Fatalf("phases %+v, want counts %v", rec.Phases, want)
	}
	for p, n := range want {
		if counts[p] != n {
			t.Fatalf("phase %s counted %d, want %d: %+v", p, counts[p], n, rec.Phases)
		}
	}
	if rec.Coverage < 0.99 || rec.Coverage > 1 {
		t.Fatalf("coverage %.4f, want in [0.99, 1]: %+v", rec.Coverage, rec)
	}
	for _, p := range rec.Phases {
		if p.Phase == "validate" && p.US < 2000 {
			t.Fatalf("validate %.0f µs does not hold the suppressed phase's 2 ms", p.US)
		}
	}
}

// TestAtLevelCharges: block accesses counted after AtLevel go to that
// level, under IOOnly too, until the next Enter; other counters never do.
func TestAtLevelCharges(t *testing.T) {
	tr := StartDetached(OpGet)
	tr.Count(CtrBlockReads, 1) // no level yet
	tr.AtLevel(2)
	tr.Count(CtrBlockReads, 2)
	tr.Count(CtrPointGets, 5)
	tr.IOOnlyBegin()
	tr.AtLevel(1)
	tr.Count(CtrCacheHits, 1)
	tr.Enter(PhaseLevelProbe) // suppressed: the level stays
	tr.Count(CtrCacheHits, 1)
	tr.IOOnlyEnd()
	tr.AtLevel(MaxTraceLevels + 3) // clamps into the last bucket
	tr.Count(CtrBlockReads, 1)
	tr.Enter(PhaseValidate)
	tr.Count(CtrBlockReads, 4)

	c := tr.Counters()
	want := make([]int64, MaxTraceLevels)
	want[1], want[2], want[MaxTraceLevels-1] = 2, 2, 1
	if len(c.BlocksPerLevel) != len(want) {
		t.Fatalf("blocks per level %v, want %v", c.BlocksPerLevel, want)
	}
	for l := range want {
		if c.BlocksPerLevel[l] != want[l] {
			t.Fatalf("blocks per level %v, want %v", c.BlocksPerLevel, want)
		}
	}
	if c.BlockAccesses() != 10 {
		t.Fatalf("block accesses %d, want 10", c.BlockAccesses())
	}
}

// TestTracerFinishClosesPhase: Finish charges the open phase up to the
// clock read that ends the trace.
func TestTracerFinishClosesPhase(t *testing.T) {
	tracer := NewTracer(1, 0)
	tr := tracer.Start(OpPut)
	tr.Enter(PhaseWAL)
	time.Sleep(time.Millisecond)
	tr.Finish()
	rec := tracer.Slow()[0]
	if rec.Coverage < 0.99 || rec.Coverage > 1 {
		t.Fatalf("coverage %.4f, want in [0.99, 1]: %+v", rec.Coverage, rec)
	}
}

// TestTopLevelPhasesOnlyEntered is the guard on the tiling: outside this
// package a top-level phase is opened only by Trace.Enter, so no window
// can leave a gap. It parses every non-test Go file of the repository and
// fails on a Trace.Since whose phase is not a named sub-phase, and on an
// Enter of a named sub-phase.
func TestTopLevelPhasesOnlyEntered(t *testing.T) {
	phases := phaseConstants(t)
	checked := 0
	root, self := filepath.Join("..", ".."), filepath.Join("..", "..", "internal", "metrics")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") || path == self {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case sel.Sel.Name == "Since" && len(call.Args) == 2:
				p, named := phaseArg(call.Args[0], phases)
				if !named || p.TopLevel() {
					t.Errorf("%s: Since of %s: a top-level phase is entered (Trace.Enter), only named sub-phases are timed",
						fset.Position(call.Pos()), exprString(call.Args[0]))
				}
			case sel.Sel.Name == "Enter" && len(call.Args) == 1:
				if p, named := phaseArg(call.Args[0], phases); named && !p.TopLevel() {
					t.Errorf("%s: Enter of the sub-phase %s", fset.Position(call.Pos()), p)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("scanned only %d files", checked)
	}
}

// phaseConstants maps each Phase constant's name to its value, read from
// the iota block in trace.go.
func phaseConstants(t *testing.T) map[string]Phase {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "trace.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Phase{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
			continue
		}
		if typ, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "Phase" {
			continue
		}
		for i, spec := range gd.Specs {
			out[spec.(*ast.ValueSpec).Names[0].Name] = Phase(i)
		}
	}
	if len(out) != int(NumPhases)+1 || out["NumPhases"] != NumPhases {
		t.Fatalf("read %d Phase constants from trace.go, want %d and NumPhases", len(out), NumPhases)
	}
	return out
}

// phaseArg resolves e when it names a phase constant as metrics.PhaseX.
func phaseArg(e ast.Expr, phases map[string]Phase) (Phase, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "metrics" {
		return 0, false
	}
	p, ok := phases[sel.Sel.Name]
	return p, ok && p < NumPhases
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "an expression"
}
