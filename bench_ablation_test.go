package dart

// Ablation benches for the design choices DESIGN.md calls out: layer
// fine-tuning targets, encoder implementation, softmax folding mode, KD
// temperature, and prefetch degree.

import (
	"fmt"
	"math/rand"
	"testing"

	"dart/internal/core"
	"dart/internal/kd"
	"dart/internal/nn"
	"dart/internal/sim"
	"dart/internal/tabular"
)

// ablationApp is a mid-difficulty workload for the ablations.
const ablationApp = "602.gcc"

// retabWith tabularizes the lab student under a custom kernel config
// (memoized across b.N escalation).
func retabWith(b *testing.B, app string, kc tabular.KernelConfig, sm tabular.SoftmaxMode, ft bool) float64 {
	key := fmt.Sprintf("retabWith/%s/%+v/%d/%v", app, kc, sm, ft)
	return memoF1(key, func() float64 {
		l := getLab(b, app)
		fit := l.art.Train.X
		if fit.N > 256 {
			fit = fit.Gather(rand.New(rand.NewSource(1)).Perm(fit.N)[:256])
		}
		res := tabular.Tabularize(l.art.Student, fit, tabular.Config{
			Kernel: kc, Softmax: sm, FineTune: ft, Seed: 1,
		})
		return l.evalF1(res.Hierarchy)
	})
}

// BenchmarkAblation_FineTuneTarget compares tabularization with and without
// the paper's layer fine-tuning (the output-imitation training of Eq. 26).
func BenchmarkAblation_FineTuneTarget(b *testing.B) {
	kc := tabular.KernelConfig{K: 64, C: 2, DataBits: 64}
	with := retabWith(b, ablationApp, kc, tabular.SoftmaxShared, true)
	without := retabWith(b, ablationApp, kc, tabular.SoftmaxShared, false)
	printOnce("abl-ft", func() {
		fmt.Printf("\n[Ablation] fine-tuning on %s: F1 w/o FT %.3f, with FT %.3f\n",
			ablationApp, without, with)
	})
	b.ReportMetric(with, "f1-ft")
	b.ReportMetric(without, "f1-noft")
	if with < without-0.08 {
		b.Fatalf("fine-tuning hurt badly: %.3f -> %.3f", without, with)
	}
	keepBusy(b, with)
}

// BenchmarkAblation_Encoder compares the exact k-means encoder against the
// O(log K) LSH encoder the latency model assumes.
func BenchmarkAblation_Encoder(b *testing.B) {
	exact := retabWith(b, ablationApp, tabular.KernelConfig{K: 64, C: 2, Kind: tabular.EncoderKMeans}, tabular.SoftmaxShared, false)
	lsh := retabWith(b, ablationApp, tabular.KernelConfig{K: 64, C: 2, Kind: tabular.EncoderLSH}, tabular.SoftmaxShared, false)
	printOnce("abl-enc", func() {
		fmt.Printf("\n[Ablation] encoder on %s: F1 exact %.3f, LSH %.3f\n", ablationApp, exact, lsh)
	})
	b.ReportMetric(exact, "f1-exact")
	b.ReportMetric(lsh, "f1-lsh")
	// LSH trades accuracy for latency; it must stay a working predictor.
	if lsh <= 0 && exact > 0.2 {
		b.Fatalf("LSH encoder collapsed: exact %.3f, lsh %.3f", exact, lsh)
	}
	keepBusy(b, lsh)
}

// BenchmarkAblation_SoftmaxMode compares the shared-denominator softmax
// folding (our default) against the per-subspace folding of the literal
// Eq. 14.
func BenchmarkAblation_SoftmaxMode(b *testing.B) {
	kc := tabular.KernelConfig{K: 64, C: 2, DataBits: 64}
	shared := retabWith(b, ablationApp, kc, tabular.SoftmaxShared, false)
	strict := retabWith(b, ablationApp, kc, tabular.SoftmaxPerSubspace, false)
	printOnce("abl-sm", func() {
		fmt.Printf("\n[Ablation] softmax folding on %s: shared %.3f, per-subspace %.3f\n",
			ablationApp, shared, strict)
	})
	b.ReportMetric(shared, "f1-shared")
	b.ReportMetric(strict, "f1-per-subspace")
	keepBusy(b, shared)
}

// BenchmarkAblation_KDTemperature sweeps the T-Sigmoid temperature.
func BenchmarkAblation_KDTemperature(b *testing.B) {
	l := getLab(b, ablationApp)
	temps := []float64{1, 2, 4}
	var f1s []float64
	for _, temp := range temps {
		temp := temp
		f1s = append(f1s, memoF1(fmt.Sprintf("kdtemp/%v", temp), func() float64 {
			rng := rand.New(rand.NewSource(11))
			student := nn.NewTransformerPredictor(l.art.Chosen.Model.Transformer(), rng)
			kdc := kd.DefaultConfig()
			kdc.Temperature = temp
			kdc.Epochs = 3
			d := kd.NewDistiller(l.art.Teacher, student, kdc, rng)
			d.Run(l.art.Train.X, l.art.Train.Y)
			return core.EvaluateModelF1(student, l.art.Test)
		}))
	}
	printOnce("abl-kdt", func() {
		fmt.Printf("\n[Ablation] KD temperature on %s: ", ablationApp)
		for i, temp := range temps {
			fmt.Printf("T=%.0f:%.3f ", temp, f1s[i])
		}
		fmt.Println()
	})
	for i := range temps {
		b.ReportMetric(f1s[i], fmt.Sprintf("f1-T%.0f", temps[i]))
	}
	keepBusy(b, f1s[0])
}

// BenchmarkAblation_PrefetchDegree sweeps the prefetch degree of the DART
// prefetcher on one workload.
func BenchmarkAblation_PrefetchDegree(b *testing.B) {
	l := getLab(b, "410.bwaves")
	degrees := []int{1, 2, 4, 8}
	var imps []float64
	for _, d := range degrees {
		d := d
		imps = append(imps, memoF1(fmt.Sprintf("degree/%d", d), func() float64 {
			cfg := sim.DefaultConfig()
			base := sim.Run(l.recs, sim.NoPrefetcher{}, cfg)
			res := sim.Run(l.recs, l.art.Prefetcher("DART", d), cfg)
			return sim.IPCImprovement(base, res)
		}))
	}
	printOnce("abl-deg", func() {
		fmt.Printf("\n[Ablation] DART prefetch degree on 410.bwaves: ")
		for i, d := range degrees {
			fmt.Printf("deg=%d:%s ", d, pct(imps[i]))
		}
		fmt.Println()
	})
	for i, d := range degrees {
		b.ReportMetric(imps[i]*100, fmt.Sprintf("ipcimp-deg%d", d))
	}
	keepBusy(b, imps[0])
}
