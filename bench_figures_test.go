package dart

// Benchmarks regenerating the paper's figures (7-14) as printed data series.

import (
	"fmt"
	"math/rand"
	"testing"

	"dart/internal/config"
	"dart/internal/dataprep"
	"dart/internal/tabular"
	"dart/internal/trace"
)

// BenchmarkFig7_AccessPatterns prints per-app pattern summaries (the data
// behind the paper's scatter visualisation): page spread and delta spread of
// consecutive accesses.
func BenchmarkFig7_AccessPatterns(b *testing.B) {
	printOnce("fig7", func() {
		fmt.Printf("\n[Fig 7] memory access pattern summary (%d accesses/app)\n", labAccesses)
		fmt.Printf("%-16s %10s %10s %14s\n", "Application", "#Page", "#Delta", "delta/access")
		for _, spec := range trace.Apps() {
			st := trace.Summarize(trace.Generate(spec, labAccesses))
			fmt.Printf("%-16s %10d %10d %14.3f\n",
				spec.Name, st.Pages, st.Deltas, float64(st.Deltas)/float64(st.Accesses))
		}
	})
	keepBusy(b, 1)
}

// fig89Apps spans the pattern spectrum for the K/C sweeps: a pure stream
// (insensitive), a mixed app, and the two quantization-sensitive apps.
func fig89Apps() []string {
	return []string{"462.libquantum", "602.gcc", "433.milc", "621.wrf"}
}

// retab tabularizes an app's student with an explicit table config (memoized).
func retab(b *testing.B, app string, k, c int, ft bool) float64 {
	key := fmt.Sprintf("retab/%s/%d/%d/%v", app, k, c, ft)
	return memoF1(key, func() float64 {
		l := getLab(b, app)
		fit := l.art.Train.X
		if fit.N > 256 {
			fit = fit.Gather(rand.New(rand.NewSource(1)).Perm(fit.N)[:256])
		}
		res := tabular.Tabularize(l.art.Student, fit, tabular.Config{
			Kernel:   tabular.KernelConfig{K: k, C: c, DataBits: 64},
			FineTune: ft,
			Seed:     1,
		})
		return l.evalF1(res.Hierarchy)
	})
}

// BenchmarkFig8_F1VersusK sweeps the prototype count (paper: K=16…1024,
// larger K recovers F1).
func BenchmarkFig8_F1VersusK(b *testing.B) {
	ks := []int{16, 64, 256}
	for _, app := range fig89Apps() {
		var series []float64
		for _, k := range ks {
			series = append(series, retab(b, app, k, 2, false))
		}
		app := app
		printOnce("fig8-"+app, func() {
			fmt.Printf("\n[Fig 8] %s F1 vs K (C=2, no FT): ", app)
			for i, k := range ks {
				fmt.Printf("K=%d:%.3f ", k, series[i])
			}
			fmt.Println()
		})
		b.Run(app, func(b *testing.B) {
			b.ReportMetric(series[0], "f1-k16")
			b.ReportMetric(series[len(series)-1], "f1-k256")
			keepBusy(b, series[0])
		})
		// Shape: the largest K must not lose to the smallest by a margin.
		if series[len(series)-1] < series[0]-0.05 {
			b.Fatalf("%s: F1 degraded with K: %v", app, series)
		}
	}
}

// BenchmarkFig9_F1VersusC sweeps the subspace count (paper: modest gains for
// larger C).
func BenchmarkFig9_F1VersusC(b *testing.B) {
	cs := []int{1, 2, 4}
	for _, app := range fig89Apps() {
		var series []float64
		for _, c := range cs {
			series = append(series, retab(b, app, 64, c, false))
		}
		app := app
		printOnce("fig9-"+app, func() {
			fmt.Printf("\n[Fig 9] %s F1 vs C (K=64, no FT): ", app)
			for i, c := range cs {
				fmt.Printf("C=%d:%.3f ", c, series[i])
			}
			fmt.Println()
		})
		b.Run(app, func(b *testing.B) {
			b.ReportMetric(series[0], "f1-c1")
			b.ReportMetric(series[len(series)-1], "f1-c4")
			keepBusy(b, series[0])
		})
		if series[len(series)-1] < series[0]-0.1 {
			b.Fatalf("%s: F1 collapsed with C: %v", app, series)
		}
	}
}

// BenchmarkFig10_LatencyStorage regenerates the latency/storage scaling
// curves from the analytic model: latency linear in log K and log C, storage
// exponential.
func BenchmarkFig10_LatencyStorage(b *testing.B) {
	dp := dataprep.Default()
	m := config.ModelConfig{T: dp.History, DI: dp.InputDim(), DA: 32, DF: 128, DO: dp.OutputDim(), H: 2, L: 1}
	printOnce("fig10", func() {
		fmt.Printf("\n[Fig 10] latency/storage vs K (C=2) and vs C (K=128)\n")
		fmt.Printf("%8s %12s %14s\n", "K", "Lat/cycles", "Storage/KB")
		for _, k := range []int{16, 32, 64, 128, 256, 512, 1024} {
			cand := config.Evaluate(m, config.TableConfig{K: k, C: 2, DataBits: 64})
			fmt.Printf("%8d %12d %14.1f\n", k, cand.Latency, float64(cand.StorageBytes)/1024)
		}
		fmt.Printf("%8s %12s %14s\n", "C", "Lat/cycles", "Storage/KB")
		for _, c := range []int{1, 2, 4, 8} {
			cand := config.Evaluate(m, config.TableConfig{K: 128, C: c, DataBits: 64})
			fmt.Printf("%8d %12d %14.1f\n", c, cand.Latency, float64(cand.StorageBytes)/1024)
		}
	})
	// Shape checks: latency linear in log K (constant increments), storage
	// superlinear in K.
	l16 := config.Evaluate(m, config.TableConfig{K: 16, C: 2}).Latency
	l64 := config.Evaluate(m, config.TableConfig{K: 64, C: 2}).Latency
	l256 := config.Evaluate(m, config.TableConfig{K: 256, C: 2}).Latency
	if (l64 - l16) != (l256 - l64) {
		b.Fatalf("latency not linear in log K: %d, %d, %d", l16, l64, l256)
	}
	s16 := config.Evaluate(m, config.TableConfig{K: 16, C: 2, DataBits: 64}).StorageBytes
	s256 := config.Evaluate(m, config.TableConfig{K: 256, C: 2, DataBits: 64}).StorageBytes
	if s256 < s16*8 {
		b.Fatalf("storage not growing fast in K: %d -> %d", s16, s256)
	}
	keepBusy(b, float64(l256))
}

// BenchmarkFig11_CosineSimilarity regenerates the layer-wise cosine
// similarity comparison between DART with and without fine-tuning.
func BenchmarkFig11_CosineSimilarity(b *testing.B) {
	// The coarse (K=16) regime is where errors accumulate across layers and
	// fine-tuning visibly lifts the similarity of the layers near the output
	// — the paper's Fig. 11 effect. The configured DART tables quantize so
	// finely that both variants sit at ~0.999.
	app := "621.wrf"
	l := getLab(b, app)
	ft, noFT := l.coarseFTRes, l.coarseNoFTRes
	printOnce("fig11", func() {
		fmt.Printf("\n[Fig 11] %s layer-wise cosine similarity at K=16 (tabular vs NN)\n", app)
		fmt.Printf("%-28s %10s %10s\n", "Layer", "w/o FT", "DART")
		for i, name := range ft.LayerNames {
			fmt.Printf("%-28s %10.3f %10.3f\n", name, noFT.Cosine[i], ft.Cosine[i])
		}
	})
	last := len(ft.Cosine) - 1
	b.ReportMetric(noFT.Cosine[last], "cos-noft-final")
	b.ReportMetric(ft.Cosine[last], "cos-ft-final")
	// Fine-tuning must not make the final layer meaningfully worse.
	if ft.Cosine[last] < noFT.Cosine[last]-0.05 {
		b.Fatalf("fine-tuning degraded final cosine: %.3f -> %.3f",
			noFT.Cosine[last], ft.Cosine[last])
	}
	keepBusy(b, ft.Cosine[last])
}

// figSim prints one prefetching figure (accuracy, coverage, or IPC).
func figSim(b *testing.B, key, title string, get func(simRow) float64) {
	apps := benchApps()
	perPF := map[string][]float64{}
	var order []string
	for _, app := range apps {
		l := getLab(b, app)
		for _, row := range l.simLab() {
			if _, ok := perPF[row.name]; !ok {
				order = append(order, row.name)
			}
			perPF[row.name] = append(perPF[row.name], get(row))
		}
	}
	printOnce(key, func() {
		fmt.Printf("\n[%s]\n%-16s", title, "Application")
		for _, pf := range order {
			fmt.Printf(" %12s", pf)
		}
		fmt.Println()
		for i, app := range apps {
			fmt.Printf("%-16s", app)
			for _, pf := range order {
				fmt.Printf(" %12s", pct(perPF[pf][i]))
			}
			fmt.Println()
		}
		fmt.Printf("%-16s", "Mean")
		for _, pf := range order {
			var s float64
			for _, v := range perPF[pf] {
				s += v
			}
			fmt.Printf(" %12s", pct(s/float64(len(apps))))
		}
		fmt.Println()
	})
	for _, pf := range order {
		var s float64
		for _, v := range perPF[pf] {
			s += v
		}
		mean := s / float64(len(apps))
		pf := pf
		b.Run(pf, func(b *testing.B) {
			b.ReportMetric(mean*100, "mean-pct")
			keepBusy(b, mean)
		})
	}
}

// BenchmarkFig12_PrefetchAccuracy regenerates the prefetch accuracy figure.
func BenchmarkFig12_PrefetchAccuracy(b *testing.B) {
	figSim(b, "fig12", "Fig 12: prefetch accuracy", func(r simRow) float64 { return r.accuracy })
}

// BenchmarkFig13_PrefetchCoverage regenerates the prefetch coverage figure.
func BenchmarkFig13_PrefetchCoverage(b *testing.B) {
	figSim(b, "fig13", "Fig 13: prefetch coverage", func(r simRow) float64 { return r.coverage })
}

// BenchmarkFig14_IPCImprovement regenerates the IPC improvement figure.
func BenchmarkFig14_IPCImprovement(b *testing.B) {
	figSim(b, "fig14", "Fig 14: IPC improvement", func(r simRow) float64 { return r.ipcImp })
}
