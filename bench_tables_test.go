package dart

// Benchmarks regenerating the paper's tables. Each benchmark prints the
// reproduced rows once and reports the headline quantities as custom metrics
// so `go test -bench` output doubles as the experiment record.

import (
	"fmt"
	"testing"

	"dart/internal/config"
	"dart/internal/dataprep"
	"dart/internal/prefetch"
	"dart/internal/sim"
	"dart/internal/trace"
)

// BenchmarkTableIII_SimulationParameters checks the simulator defaults
// against Table III and prints them.
func BenchmarkTableIII_SimulationParameters(b *testing.B) {
	cfg := sim.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	printOnce("tableIII", func() {
		fmt.Printf("\n[Table III] CPU %d-wide OoO, ROB %d | LLC %d MiB %d-way, %d MSHRs, %d-cycle hit | DRAM %d-cycle\n",
			cfg.CoreWidth, cfg.ROBSize, cfg.LLCBlocks*64>>20, cfg.LLCWays,
			cfg.LLCMSHRs, cfg.LLCHitLatency, cfg.DRAMLatency)
	})
	keepBusy(b, float64(cfg.LLCBlocks))
}

// BenchmarkTableIV_TraceStats regenerates the benchmark trace statistics.
func BenchmarkTableIV_TraceStats(b *testing.B) {
	printOnce("tableIV", func() {
		fmt.Printf("\n[Table IV] benchmark trace statistics (%d accesses/app)\n", labAccesses)
		fmt.Printf("%-16s %10s %10s %10s\n", "Application", "#Address", "#Page", "#Delta")
		for _, spec := range trace.Apps() {
			st := trace.Summarize(trace.Generate(spec, labAccesses))
			fmt.Printf("%-16s %10d %10d %10d\n", spec.Name, st.Addresses, st.Pages, st.Deltas)
		}
	})
	for _, spec := range trace.Apps() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var st trace.Stats
			for i := 0; i < b.N; i++ {
				st = trace.Summarize(trace.Generate(spec, labAccesses))
			}
			b.ReportMetric(float64(st.Pages), "pages")
			b.ReportMetric(float64(st.Deltas), "deltas")
		})
	}
}

// BenchmarkTableV_ModelComplexity reproduces the Teacher/Student/DART
// latency-storage-operations comparison from the analytic models.
func BenchmarkTableV_ModelComplexity(b *testing.B) {
	dp := dataprep.Default()
	teacher := config.ModelConfig{T: dp.History, DI: dp.InputDim(), DA: 256, DF: 1024, DO: dp.OutputDim(), H: 8, L: 4}
	student := config.ModelConfig{T: dp.History, DI: dp.InputDim(), DA: 32, DF: 128, DO: dp.OutputDim(), H: 2, L: 1}
	dart := config.Evaluate(student, config.TableConfig{K: 128, C: 2, DataBits: 64})

	tLat, tStore, tOps := config.NNLatency(teacher), config.NNStorageBits(teacher, 32)/8, config.NNOps(teacher)
	sLat, sStore, sOps := config.NNLatency(student), config.NNStorageBits(student, 32)/8, config.NNOps(student)
	printOnce("tableV", func() {
		fmt.Printf("\n[Table V] model complexity (L/cycles, S/bytes, A/ops)\n")
		fmt.Printf("%-8s %3s %4s %2s %5s %3s | %10s %12s %12s\n", "Model", "L", "D", "H", "K", "C", "Latency", "Storage", "Ops")
		fmt.Printf("%-8s %3d %4d %2d %5s %3s | %10d %12d %12d\n", "Teacher", 4, 256, 8, "-", "-", tLat, tStore, tOps)
		fmt.Printf("%-8s %3d %4d %2d %5s %3s | %10d %12d %12d\n", "Student", 1, 32, 2, "-", "-", sLat, sStore, sOps)
		fmt.Printf("%-8s %3d %4d %2d %5d %3d | %10d %12d %12d\n", "DART", 1, 32, 2, 128, 2, dart.Latency, dart.StorageBytes, dart.Ops)
		fmt.Printf("DART vs Teacher: %.0fx faster, %.4f%% ops removed\n",
			float64(tLat)/float64(dart.Latency), 100*(1-float64(dart.Ops)/float64(tOps)))
		fmt.Printf("DART vs Student: %.1fx faster, %.2f%% ops removed\n",
			float64(sLat)/float64(dart.Latency), 100*(1-float64(dart.Ops)/float64(sOps)))
	})
	// Paper: 170x vs teacher, 9.4x vs student; shapes must hold.
	if float64(tLat)/float64(dart.Latency) < 20 {
		b.Fatalf("teacher acceleration too small: %d -> %d", tLat, dart.Latency)
	}
	if float64(sLat)/float64(dart.Latency) < 3 {
		b.Fatalf("student acceleration too small: %d -> %d", sLat, dart.Latency)
	}
	b.ReportMetric(float64(tLat)/float64(dart.Latency), "teacher-speedup")
	b.ReportMetric(float64(sLat)/float64(dart.Latency), "student-speedup")
	keepBusy(b, float64(dart.Latency))
}

// BenchmarkTableVI_DistillationF1 regenerates the teacher / student-without-
// KD / distilled-student F1 comparison per application.
func BenchmarkTableVI_DistillationF1(b *testing.B) {
	var meanT, meanN, meanS float64
	rows := make([][4]string, 0, 8)
	for _, app := range benchApps() {
		l := getLab(b, app)
		meanT += l.art.F1Teacher
		meanN += l.art.F1StudentNoKD
		meanS += l.art.F1Student
		rows = append(rows, [4]string{app,
			fmt.Sprintf("%.3f", l.art.F1Teacher),
			fmt.Sprintf("%.3f", l.art.F1StudentNoKD),
			fmt.Sprintf("%.3f", l.art.F1Student)})
		b.Run(app, func(b *testing.B) {
			b.ReportMetric(getLab(b, app).art.F1Student, "f1-student")
			keepBusy(b, 1)
		})
	}
	n := float64(len(benchApps()))
	meanT, meanN, meanS = meanT/n, meanN/n, meanS/n
	printOnce("tableVI", func() {
		fmt.Printf("\n[Table VI] F1 of teacher and students (with/without KD)\n")
		fmt.Printf("%-16s %8s %8s %8s\n", "Application", "Teacher", "NoKD", "Student")
		for _, r := range rows {
			fmt.Printf("%-16s %8s %8s %8s\n", r[0], r[1], r[2], r[3])
		}
		fmt.Printf("%-16s %8.3f %8.3f %8.3f\n", "Mean", meanT, meanN, meanS)
	})
	b.ReportMetric(meanT, "f1-teacher-mean")
	b.ReportMetric(meanN, "f1-nokd-mean")
	b.ReportMetric(meanS, "f1-student-mean")
	keepBusy(b, meanS)
}

// BenchmarkTableVII_TabularizationF1 regenerates the DART-with/without-fine-
// tuning F1 comparison per application.
func BenchmarkTableVII_TabularizationF1(b *testing.B) {
	// Two regimes: the configured DART tables (K=128-class, fine
	// quantization) and a coarse K=16/C=2 variant where approximation error
	// accumulates across layers and fine-tuning has room to help.
	var meanFT, meanNoFT, meanCFT, meanCNoFT float64
	rows := make([][5]string, 0, 8)
	for _, app := range benchApps() {
		l := getLab(b, app)
		noFT := l.evalF1(l.noFT.Hierarchy)
		meanFT += l.art.F1DART
		meanNoFT += noFT
		meanCFT += l.coarseFT
		meanCNoFT += l.coarseNoFT
		rows = append(rows, [5]string{app,
			fmt.Sprintf("%.3f", noFT), fmt.Sprintf("%.3f", l.art.F1DART),
			fmt.Sprintf("%.3f", l.coarseNoFT), fmt.Sprintf("%.3f", l.coarseFT)})
		b.Run(app, func(b *testing.B) {
			b.ReportMetric(getLab(b, app).art.F1DART, "f1-dart")
			keepBusy(b, 1)
		})
	}
	n := float64(len(benchApps()))
	meanFT, meanNoFT, meanCFT, meanCNoFT = meanFT/n, meanNoFT/n, meanCFT/n, meanCNoFT/n
	printOnce("tableVII", func() {
		fmt.Printf("\n[Table VII] F1 of DART without and with layer fine-tuning\n")
		fmt.Printf("%-16s | %10s %10s | %12s %12s\n",
			"Application", "w/oFT", "DART", "w/oFT(K=16)", "FT(K=16)")
		for _, r := range rows {
			fmt.Printf("%-16s | %10s %10s | %12s %12s\n", r[0], r[1], r[2], r[3], r[4])
		}
		fmt.Printf("%-16s | %10.3f %10.3f | %12.3f %12.3f\n",
			"Mean", meanNoFT, meanFT, meanCNoFT, meanCFT)
	})
	b.ReportMetric(meanNoFT, "f1-noft-mean")
	b.ReportMetric(meanFT, "f1-dart-mean")
	b.ReportMetric(meanCNoFT, "f1-coarse-noft-mean")
	b.ReportMetric(meanCFT, "f1-coarse-ft-mean")
	keepBusy(b, meanFT)
}

// BenchmarkTableVIII_Configurator regenerates the DART-S/DART/DART-L rows.
func BenchmarkTableVIII_Configurator(b *testing.B) {
	dp := dataprep.Default()
	space := config.DefaultSpace(dp.History, dp.InputDim(), dp.OutputDim(), 64)
	variants := []struct {
		name    string
		tau     int
		storage int
	}{
		{"DART-S", 60, 30 << 10},
		{"DART", 100, 1 << 20},
		{"DART-L", 200, 4 << 20},
	}
	printOnce("tableVIII", func() {
		fmt.Printf("\n[Table VIII] configurations under design constraints\n")
		fmt.Printf("%-8s %10s %12s | %-18s %8s %12s %8s\n",
			"Variant", "τ/cycles", "s/bytes", "(L,D,H,K,C)", "Lat", "Storage", "Ops")
	})
	for _, v := range variants {
		cand, err := config.Configure(config.Constraints{LatencyCycles: v.tau, StorageBytes: v.storage}, space)
		if err != nil {
			b.Fatalf("%s: %v", v.name, err)
		}
		if cand.Latency > v.tau || cand.StorageBytes > v.storage {
			b.Fatalf("%s violates constraints: %+v", v.name, cand)
		}
		printOnce("tableVIII-"+v.name, func() {
			m, t := cand.Model, cand.Table
			fmt.Printf("%-8s %10d %12d | (%d,%2d,%d,%4d,%d) %11d %12d %8d\n",
				v.name, v.tau, v.storage, m.L, m.DA, m.H, t.K, t.C,
				cand.Latency, cand.StorageBytes, cand.Ops)
		})
		b.Run(v.name, func(b *testing.B) {
			var c config.Candidate
			for i := 0; i < b.N; i++ {
				c, _ = config.Configure(config.Constraints{LatencyCycles: v.tau, StorageBytes: v.storage}, space)
			}
			b.ReportMetric(float64(c.Latency), "latency-cycles")
			b.ReportMetric(float64(c.StorageBytes), "storage-bytes")
		})
	}
}

// BenchmarkTableIX_PrefetcherInventory prints the evaluated prefetchers with
// their storage and latency properties.
func BenchmarkTableIX_PrefetcherInventory(b *testing.B) {
	dp := dataprep.Default()
	bo := prefetch.NewBestOffset(labDegree)
	isb := prefetch.NewISB(labDegree)
	student := config.ModelConfig{T: dp.History, DI: dp.InputDim(), DA: 32, DF: 128, DO: dp.OutputDim(), H: 2, L: 1}
	dart := config.Evaluate(student, config.TableConfig{K: 128, C: 2, DataBits: 64})
	voyLat := config.LSTMLatency(dp.InputDim(), 32, dp.History, dp.OutputDim())
	printOnce("tableIX", func() {
		fmt.Printf("\n[Table IX] prefetcher inventory\n")
		fmt.Printf("%-13s %12s %10s  %s\n", "Prefetcher", "Storage/B", "Latency", "Mechanism")
		fmt.Printf("%-13s %12d %10d  %s\n", bo.Name(), bo.StorageBytes(), bo.Latency(), "spatial locality (table)")
		fmt.Printf("%-13s %12d %10d  %s\n", isb.Name(), isb.StorageBytes(), isb.Latency(), "temporal locality (table)")
		fmt.Printf("%-13s %12d %10d  %s\n", "TransFetch", config.NNStorageBits(student, 32)/8, config.NNLatency(student), "attention (ML)")
		fmt.Printf("%-13s %12d %10d  %s\n", "Voyager", config.LSTMParams(dp.InputDim(), 32, dp.OutputDim())*4, voyLat, "LSTM (ML)")
		fmt.Printf("%-13s %12d %10d  %s\n", "DART", dart.StorageBytes, dart.Latency, "attention (table+ML)")
	})
	// The paper's ordering: NN latencies dwarf the table-based ones.
	if voyLat < config.NNLatency(student) {
		b.Fatal("LSTM should be slower than the attention student (serial recurrence)")
	}
	if dart.Latency > bo.Latency()*3 {
		b.Fatalf("DART latency %d not comparable to BO's %d", dart.Latency, bo.Latency())
	}
	keepBusy(b, float64(dart.Latency))
}
