// Command wishtrace is the trace-generation module of the simulation
// infrastructure (the paper's Figure 9): it captures the dynamic µop
// trace of a benchmark binary to a compact file, and can summarize or
// dump existing traces.
//
// Usage:
//
//	wishtrace -bench parser -variant wish-jjl -o parser.wbtr
//	wishtrace -summarize parser.wbtr
//	wishtrace -dump 20 parser.wbtr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wishbranch/internal/compiler"
	"wishbranch/internal/trace"
	"wishbranch/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "gzip", "benchmark to trace")
		input     = flag.String("input", "A", "input set: A, B or C")
		variant   = flag.String("variant", "normal", "binary: normal base-def base-max wish-jj wish-jjl")
		out       = flag.String("o", "", "output trace file (default: <bench>-<variant>.wbtr)")
		scale     = flag.Float64("scale", 1.0, "workload size multiplier")
		maxInsts  = flag.Uint64("max", 0, "stop after this many µops (0 = run to halt)")
		summarize = flag.String("summarize", "", "summarize an existing trace file and exit")
		dump      = flag.Int("dump", 0, "print the first N events of the trace file given as the last argument")
	)
	flag.Parse()

	if *summarize != "" {
		f, err := os.Open(*summarize)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		sum, err := trace.Summarize(f)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(sum)
		return
	}
	if *dump > 0 {
		if flag.NArg() != 1 {
			fail("-dump wants a trace file argument")
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			fail("%v", err)
		}
		for i := 0; i < *dump; i++ {
			e, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fail("%v", err)
			}
			printEvent(i, e)
		}
		return
	}

	b, ok := workload.ByName(*bench)
	if !ok {
		fail("unknown benchmark %q", *bench)
	}
	in, err := workload.ParseInput(*input)
	if err != nil {
		fail("%v", err)
	}
	v, err := compiler.ParseVariant(*variant)
	if err != nil {
		fail("%v", err)
	}

	src, mem := b.Build(in, *scale)
	p, err := compiler.Compile(src, v)
	if err != nil {
		fail("compile: %v", err)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s.wbtr", *bench, *variant)
	}
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	sum, err := trace.Capture(p, mem, f, *maxInsts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail("capture: %v", err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("%s: %s\n", path, sum)
	if st != nil && sum.Events > 0 {
		fmt.Printf("%d bytes (%.2f bytes/µop)\n", st.Size(), float64(st.Size())/float64(sum.Events))
	}
}

func printEvent(i int, e trace.Event) {
	kind := "alu"
	switch {
	case e.Halt:
		kind = "halt"
	case e.IsMem && e.IsStore:
		kind = "store"
	case e.IsMem:
		kind = "load"
	case e.Taken || e.NextPC != e.PC+1:
		kind = "branch"
	}
	fmt.Printf("%6d  pc=%-6d next=%-6d %-6s guard=%v", i, e.PC, e.NextPC, kind, e.GuardTrue)
	if e.IsMem && e.GuardTrue {
		fmt.Printf(" addr=%#x val=%d", e.Addr, e.Value)
	}
	fmt.Println()
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "wishtrace: "+format+"\n", args...)
	os.Exit(1)
}
