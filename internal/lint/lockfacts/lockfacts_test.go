package lockfacts_test

import (
	"fmt"
	"reflect"
	"testing"

	"leveldbpp/internal/lint"
	"leveldbpp/internal/lint/lockfacts"
)

// The fixtures live under the lint package's testdata tree, which ./...
// patterns skip; they are loaded here by explicit path. caller imports
// impl, so the pair exercises every cross-package seam: call edges,
// interface resolution, and lock classes owned by another package.
const (
	implPath   = "leveldbpp/internal/lint/testdata/src/xcall/impl"
	callerPath = "leveldbpp/internal/lint/testdata/src/xcall/caller"
)

// buildProgram loads patterns (relative to the lint package directory)
// and builds a lockfacts program over them, the same conversion the
// analyzer driver performs.
func buildProgram(t *testing.T, patterns ...string) *lockfacts.Program {
	t.Helper()
	pkgs, err := lint.Load("..", patterns...)
	if err != nil {
		t.Fatalf("load %v: %v", patterns, err)
	}
	var facts []*lockfacts.Pkg
	for _, pkg := range pkgs {
		facts = append(facts, &lockfacts.Pkg{
			Path:  pkg.ImportPath,
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Info:  pkg.Info,
		})
	}
	return lockfacts.Build(facts)
}

func xcallProgram(t *testing.T) *lockfacts.Program {
	return buildProgram(t, "./testdata/src/xcall/impl", "./testdata/src/xcall/caller")
}

// TestCrossPackageCallEdge: a static method call into another loaded
// package resolves to exactly that method's canonical ID.
func TestCrossPackageCallEdge(t *testing.T) {
	prog := xcallProgram(t)
	fn := prog.Funcs[callerPath+".(Pool).Write"]
	if fn == nil {
		t.Fatalf("caller.(Pool).Write not in program; have %v", prog.FuncIDs)
	}
	want := implPath + ".(Store).Put"
	var got [][]string
	for _, call := range fn.Calls {
		got = append(got, call.Callees)
	}
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != want {
		t.Errorf("Write call edges = %v, want [[%s]]", got, want)
	}
}

// TestInterfaceResolution: a call through an interface declared in a
// program package resolves to every concrete implementation, across
// package boundaries, in sorted order.
func TestInterfaceResolution(t *testing.T) {
	prog := xcallProgram(t)
	fn := prog.Funcs[callerPath+".(Pool).Flush"]
	if fn == nil {
		t.Fatal("caller.(Pool).Flush not in program")
	}
	want := []string{implPath + ".(Null).Drain", implPath + ".(Store).Drain"}
	var got [][]string
	for _, call := range fn.Calls {
		got = append(got, call.Callees)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Errorf("Flush call edges = %v, want [%v]", got, want)
	}
}

// TestTransAcquiresWitness: the transitive acquisition set of a holder
// names the callee's lock class with a chain walking through the
// intermediate function displays.
func TestTransAcquiresWitness(t *testing.T) {
	prog := xcallProgram(t)
	acq := prog.TransAcquires(callerPath + ".(Pool).Write")
	w, ok := acq["impl.Store.mu"]
	if !ok {
		t.Fatalf("impl.Store.mu not in TransAcquires; have %v", acq)
	}
	wantChain := []string{"caller.Pool.Write", "impl.Store.Put"}
	if !reflect.DeepEqual(w.Chain, wantChain) {
		t.Errorf("witness chain = %v, want %v", w.Chain, wantChain)
	}
	if _, ok := acq["caller.Pool.mu"]; !ok {
		t.Errorf("direct acquisition caller.Pool.mu missing; have %v", acq)
	}
}

// TestCrossPackageEdges: holding caller.Pool.mu across both the static
// and the interface call yields acquisition edges into impl.Store.mu
// with full witness paths.
func TestCrossPackageEdges(t *testing.T) {
	prog := xcallProgram(t)
	paths := map[string]bool{}
	for _, e := range prog.Edges() {
		if e.From == "caller.Pool.mu" && e.To == "impl.Store.mu" {
			paths[e.Path()] = true
		}
	}
	for _, want := range []string{
		"caller.Pool.Write -> impl.Store.Put",
		"caller.Pool.Flush -> impl.Store.Drain",
	} {
		if !paths[want] {
			t.Errorf("missing edge witness %q; have %v", want, paths)
		}
	}
}

// TestWitnessDeterminism: two independent loads of the cyclic lockorder
// fixture render identical edge lists — same order, same witness
// chains, same positions. The lockorder analyzer's cycle reports are
// built from these, so any instability here would make `make lint`
// flap.
func TestWitnessDeterminism(t *testing.T) {
	render := func(prog *lockfacts.Program) []string {
		var out []string
		for _, e := range prog.Edges() {
			out = append(out, fmt.Sprintf("%s -> %s via %s at %s acq %s",
				e.From, e.To, e.Path(),
				prog.Fset.Position(e.Pos), prog.Fset.Position(e.AcqPos)))
		}
		return out
	}
	a := render(buildProgram(t, "./testdata/src/lockorder"))
	b := render(buildProgram(t, "./testdata/src/lockorder"))
	if len(a) == 0 {
		t.Fatal("lockorder fixture produced no edges")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("edge rendering not deterministic:\n run 1: %v\n run 2: %v", a, b)
	}
}
