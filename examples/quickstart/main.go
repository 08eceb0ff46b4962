// Quickstart: load a MiniFort program, run the flow-sensitive
// interprocedural constant propagation, inspect the constants it
// proves, and execute the program before and after the transformation
// that materialises them.
package main

import (
	"fmt"
	"log"

	fsicp "fsicp"
)

const src = `program quickstart

global scale int = 10

proc main() {
  use scale
  var total int = 0
  call accumulate(total, 5)
  print "scaled by", scale
}

proc accumulate(sum int, n int) {
  use scale
  var i int
  for i = 1, n {
    sum = sum + i * scale
  }
  print "sum =", sum
}`

func main() {
	prog, err := fsicp.Load("quickstart.mf", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(prog)

	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	fmt.Printf("\nflow-sensitive ICP found %d constants in %v:\n", len(a.Constants()), a.Duration())
	for _, c := range a.Constants() {
		fmt.Printf("  at entry of %-12s %-8s = %s (%s)\n", c.Proc, c.Var, c.Value, c.Kind)
	}

	before := prog.Run(nil)
	if before.Err != nil {
		log.Fatal(before.Err)
	}
	fmt.Print("\nprogram output:\n", before.Output)

	rep, err := a.Optimize(fsicp.OptimizeOptions{Fold: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntransformation: %d entry assignments, %d folded instructions, %d folded branches, %d blocks removed\n",
		rep.EntryAssignments, rep.FoldedInstrs, rep.FoldedBranches, rep.RemovedBlocks)

	after := prog.Run(nil)
	if after.Err != nil {
		log.Fatal(after.Err)
	}
	if after.Output == before.Output {
		fmt.Println("transformed program produces identical output — semantics preserved")
	} else {
		log.Fatalf("output changed!\nbefore:\n%s\nafter:\n%s", before.Output, after.Output)
	}
}
