package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllocFreeFixtureClean runs the gate over the allocfree fixture:
// Accum allocates nothing, Push's one growth allocation carries the
// //aspen:alloc waiver, Fresh is unannotated — zero findings.
func TestAllocFreeFixtureClean(t *testing.T) {
	diags, err := CheckAllocFree(".", "./testdata/src/allocfree")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// writeScratchModule lays out a one-package throwaway module and returns
// its directory.
func writeScratchModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestAllocFreeCatchesInjectedAllocation is the acceptance drill for the
// gate: inject a deliberate make([]byte, n) into an //aspen:allocfree
// function and the gate must fail with a finding naming the function and
// the escaping allocation.
func TestAllocFreeCatchesInjectedAllocation(t *testing.T) {
	dir := writeScratchModule(t, `// Package p is an escape-gate scratch fixture.
package p

var sink []byte

// Hot is pinned allocation-free, then betrayed below.
//
//aspen:allocfree
func Hot(n int) {
	sink = make([]byte, n)
}
`)
	diags, err := CheckAllocFree(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "allocfree" {
		t.Errorf("analyzer = %q, want allocfree", d.Analyzer)
	}
	if !strings.Contains(d.Message, "Hot is //aspen:allocfree but") {
		t.Errorf("message does not name the annotated function: %q", d.Message)
	}
	if !strings.Contains(d.Message, "escapes to heap") {
		t.Errorf("message does not carry the escape diagnostic: %q", d.Message)
	}
	if filepath.Base(d.Position.Filename) != "p.go" || d.Position.Line == 0 {
		t.Errorf("finding not resolved to a source position: %s", d.Position)
	}
}

// TestAllocFreeWaiver pins the //aspen:alloc per-line waiver: the same
// injected allocation passes once audited.
func TestAllocFreeWaiver(t *testing.T) {
	dir := writeScratchModule(t, `// Package p is an escape-gate scratch fixture.
package p

var sink []byte

// Hot carries one audited allocation.
//
//aspen:allocfree
func Hot(n int) {
	sink = make([]byte, n) //aspen:alloc audited in the waiver test
}
`)
	diags, err := CheckAllocFree(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("waived allocation still reported: %s", d)
	}
}

// TestAllocFreeReceiverNaming pins that method findings name the
// receiver type (Network.Transfer style), not just the method.
func TestAllocFreeReceiverNaming(t *testing.T) {
	dir := writeScratchModule(t, `// Package p is an escape-gate scratch fixture.
package p

// T is a receiver for the naming check.
type T struct{ sink []int }

// Hot leaks through its receiver.
//
//aspen:allocfree
func (t *T) Hot(n int) {
	t.sink = make([]int, n)
}
`)
	diags, err := CheckAllocFree(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "T.Hot is //aspen:allocfree but") {
		t.Fatalf("got %v, want one finding naming T.Hot", diags)
	}
}

// TestAllocFreeRepoClean pins the repo's own annotated hot paths —
// sim.Transfer, the join Step methods, engine.stepLive/stepOne, the window
// arrival path — at zero steady-state heap allocations, as a test
// mirroring the CI gate.
func TestAllocFreeRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the repo with -gcflags=-m")
	}
	diags, err := CheckAllocFree(".", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("annotated hot path allocates: %s", d)
	}
}
