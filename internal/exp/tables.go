package exp

import (
	"fmt"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/workload"
)

// table1Exp prints the simulated system parameters (Table 1), derived from
// the live configuration structs so the table cannot drift from the code.
func table1Exp() Experiment {
	return Experiment{
		ID:     "table1",
		Title:  "Table 1: System parameters",
		Expect: "16-core CMP; split I/D 64KB 2-way L1s; 1MB/core 16-way L2; 64-byte blocks; 48-bit addresses.",
		Run: func(o Options) ([]*stats.Table, error) {
			t := stats.NewTable("Table 1: System parameters", "Parameter", "Value")
			sh := cmpsim.DefaultConfig(cmpsim.SharedL2)
			pr := cmpsim.DefaultConfig(cmpsim.PrivateL2)
			t.AddRow("CMP size", fmt.Sprintf("%d cores", sh.Cores))
			t.AddRow("L1 caches", fmt.Sprintf("split I/D, %d sets x %d ways (64KB), 64-byte blocks, write-back",
				sh.TrackedSets, sh.TrackedAssoc))
			t.AddRow("Private L2 caches", fmt.Sprintf("%d sets x %d ways (1MB per core), 64-byte blocks",
				pr.TrackedSets, pr.TrackedAssoc))
			t.AddRow("Directory slices", fmt.Sprintf("%d, block-address interleaved", sh.Slices()))
			t.AddRow("Shared-L2 1x slice capacity", fmt.Sprintf("%d entries", sh.OneXSliceCapacity()))
			t.AddRow("Private-L2 1x slice capacity", fmt.Sprintf("%d entries", pr.OneXSliceCapacity()))
			t.AddRow("Address space", "48-bit")
			return []*stats.Table{t}, nil
		},
	}
}

// table2Exp prints the workload suite (Table 2) with the synthetic
// generator parameters standing in for each application.
func table2Exp() Experiment {
	return Experiment{
		ID:     "table2",
		Title:  "Table 2: Application parameters",
		Expect: "OLTP (DB2, Oracle), DSS (TPC-H Q2/Q16/Q17), Web (Apache, Zeus), Scientific (em3d, ocean).",
		Run: func(o Options) ([]*stats.Table, error) {
			t := stats.NewTable("Table 2: Application parameters (synthetic stand-ins)",
				"Workload", "Class", "Paper application", "Code blk", "Shared blk", "Private blk/core", "Wr frac")
			for _, p := range workload.Profiles() {
				t.AddRowf(p.Name, p.Class, p.Table2, p.CodeBlocks, p.SharedBlocks, p.PrivateBlocks, p.WriteFrac)
			}
			t.AddNote("footprints are 64-byte blocks; streaming workloads sweep their private region sequentially")
			return []*stats.Table{t}, nil
		},
	}
}
