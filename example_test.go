package fsicp_test

import (
	"fmt"

	fsicp "fsicp"
)

// ExampleLoad demonstrates the basic pipeline: load, analyse, list
// constants.
func ExampleLoad() {
	prog, err := fsicp.Load("demo.mf", `program demo
proc main() {
  call work(21)
}
proc work(n int) {
  print n * 2
}`)
	if err != nil {
		panic(err)
	}
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	for _, c := range a.Constants() {
		fmt.Printf("%s.%s = %s\n", c.Proc, c.Var, c.Value)
	}
	// Output:
	// work.n = 21
}

// ExampleProgram_Run shows direct execution with the reference
// interpreter.
func ExampleProgram_Run() {
	prog, _ := fsicp.Load("run.mf", `program run
proc main() {
  var i int
  var s int = 0
  for i = 1, 4 {
    s = s + i
  }
  print "sum", s
}`)
	r := prog.Run(nil)
	fmt.Print(r.Output)
	// Output:
	// sum 10
}

// ExampleAnalysis_ApplyTransform folds the discovered constants into
// the program and shows the semantics are unchanged.
func ExampleAnalysis_ApplyTransform() {
	prog, _ := fsicp.Load("t.mf", `program t
proc main() {
  call emit(6, 7)
}
proc emit(a int, b int) {
  print a * b
}`)
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	rep := a.ApplyTransform()
	fmt.Printf("assignments=%d folded=%d\n", rep.EntryAssignments, rep.FoldedInstrs)
	fmt.Print(prog.Run(nil).Output)
	// Output:
	// assignments=2 folded=1
	// 42
}

// ExampleProgram_AnalyzeJumpFunctions contrasts two baselines on an
// argument only the stronger one can summarise.
func ExampleProgram_AnalyzeJumpFunctions() {
	prog, _ := fsicp.Load("jf.mf", `program jf
proc main() { call a(5) }
proc a(x int) { call b(2 * x + 1) }
proc b(y int) { print y }`)
	for _, k := range []fsicp.JumpFunctionKind{fsicp.PassThrough, fsicp.Polynomial} {
		cs := prog.AnalyzeJumpFunctions(k).Constants()
		found := "nothing"
		for _, c := range cs {
			if c.Proc == "b" {
				found = c.Var + " = " + c.Value
			}
		}
		fmt.Printf("%s: %s\n", k, found)
	}
	// Output:
	// pass-through: nothing
	// polynomial: y = 11
}
