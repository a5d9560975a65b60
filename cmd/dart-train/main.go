// Command dart-train runs the full DART pipeline (Fig. 2) on one synthetic
// benchmark: teacher training, table configuration, knowledge distillation,
// and layer-wise tabularization with fine-tuning. It prints the per-stage
// F1-scores (the per-app columns of Tables VI and VII).
//
// Usage:
//
//	dart-train [-app mcf] [-n accesses] [-epochs N] [-tau cycles] [-storage bytes]
//
// With -distill the pipeline additionally distills the serving tier's
// compact student (nn.StudentConfig of the configured architecture) from the
// trained teacher, reporting its F1 next to the pipeline stages; -out
// publishes three classes — the configured network as the online teacher,
// the compact one as the "student" class, and its tabularized hierarchy as
// the "dart" class — into a versioned checkpoint directory that
// `dart-serve -pretrain -dart -checkpoint-dir DIR` recovers on startup,
// bridging offline distillation into the serving tier (dart-train prints
// that command). The shapes match because -pretrain configures the daemon's
// architecture under the same constraints as dart-train's default -tau and
// -storage; without -pretrain, or with other -tau/-storage values, the
// architectures differ and the recovery scan skips the mismatched files.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"dart/internal/config"
	"dart/internal/core"
	"dart/internal/kd"
	"dart/internal/nn"
	"dart/internal/online"
	"dart/internal/tabular"
	"dart/internal/trace"
)

// kdEpochs is kd.DefaultConfig with the epoch count overridden.
func kdEpochs(n int) kd.Config {
	c := kd.DefaultConfig()
	c.Epochs = n
	return c
}

func main() {
	app := flag.String("app", "462.libquantum", "application (suffix match)")
	n := flag.Int("n", 20000, "trace accesses")
	epochs := flag.Int("epochs", 8, "teacher training epochs")
	tau := flag.Int("tau", config.DefaultConstraints.LatencyCycles, "latency constraint τ in cycles")
	storage := flag.Int("storage", config.DefaultConstraints.StorageBytes, "storage constraint s in bytes")
	fineTune := flag.Bool("finetune", true, "enable layer fine-tuning")
	traceFile := flag.String("trace", "", "load a CSV LLC trace instead of generating one")
	distill := flag.Bool("distill", false, "also distill the serving tier's compact student from the teacher")
	out := flag.String("out", "", "distill: publish teacher+student model classes as versioned checkpoints into this directory")
	policySpec := flag.String("policy-spec", "", "distill: policy spec driving the serve student architecture and tabularization kernel (same syntax as dart-serve); must match the daemon's so checkpoints restore")
	flag.Parse()

	var recs []trace.Record
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		recs, err = trace.ReadCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("Loaded %d LLC accesses from %s\n", len(recs), *traceFile)
	} else {
		spec, ok := trace.AppByName(*app)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown application %q\n", *app)
			os.Exit(1)
		}
		fmt.Printf("Generating %d LLC accesses for %s...\n", *n, spec.Name)
		recs = trace.Generate(spec, *n)
	}

	art, err := core.BuildDART(recs, core.Options{
		Constraints:      config.Constraints{LatencyCycles: *tau, StorageBytes: *storage},
		TeacherEpochs:    *epochs,
		KD:               kdEpochs(*epochs),
		FineTune:         *fineTune,
		TrainStudentNoKD: true,
		Seed:             1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	m, t := art.Chosen.Model, art.Chosen.Table
	fmt.Printf("\nConfigured student (L, D, H, K, C) = (%d, %d, %d, %d, %d)\n",
		m.L, m.DA, m.H, t.K, t.C)
	fmt.Printf("Predictor latency %d cycles, storage %.1f KB, %d ops\n",
		art.Chosen.Latency, float64(art.Chosen.StorageBytes)/1024, art.Chosen.Ops)
	fmt.Printf("\n%-22s %8s\n", "Model", "F1")
	fmt.Printf("%-22s %8.3f\n", "Teacher", art.F1Teacher)
	fmt.Printf("%-22s %8.3f\n", "Student w/o KD", art.F1StudentNoKD)
	fmt.Printf("%-22s %8.3f\n", "Student (KD)", art.F1Student)
	fmt.Printf("%-22s %8.3f\n", "DART (tables)", art.F1DART)

	if *distill {
		spec, err := config.ParsePolicySpec(*policySpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := distillServeStudent(art, *epochs, *out, spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// distillServeStudent reuses the pipeline's teacher and data split to distill
// the serving tier's compact student, and optionally publishes the teacher,
// the student and its tabularized hierarchy into a dart-serve checkpoint
// directory. The student architecture and table kernel come from
// config.PolicySpec.Serving, the call dart-serve's buildLearner makes, so
// published checkpoints restore into the daemon's identically-shaped tiers.
func distillServeStudent(art *core.Artifacts, epochs int, out string, spec config.PolicySpec) error {
	tcfg := art.Chosen.Model.Transformer()
	scfg, tabCfg, err := spec.Serving(tcfg, online.DefaultTabularConfig())
	if err != nil {
		return err
	}
	smodel := config.ModelOf(scfg)
	// Seed 13 matches dart-serve's student factory so recovered checkpoints
	// restore into an identically-shaped network.
	student := nn.NewTransformerPredictor(scfg, rand.New(rand.NewSource(13)))
	d := kd.NewDistiller(art.Teacher, student, kdEpochs(epochs), rand.New(rand.NewSource(3)))
	d.Run(art.Train.X, art.Train.Y)
	f1 := core.EvaluateModelF1(student, art.Test)
	fmt.Printf("%-22s %8.3f   (%d params, latency %d cycles, %.1f KB)\n",
		"Serve student (KD)", f1, nn.ParamCount(student),
		config.NNLatency(smodel), float64(config.NNStorageBits(smodel, 32))/8/1024)

	if out == "" {
		return nil
	}
	tStore, err := online.NewModelStore(func() nn.Layer {
		return nn.NewTransformerPredictor(tcfg, rand.New(rand.NewSource(7)))
	}, out, "")
	if err != nil {
		return err
	}
	tm, err := tStore.Publish(art.Student, nn.CheckpointMeta{Loss: 1 - art.F1Student})
	if err != nil {
		return err
	}
	sStore, err := online.NewModelStore(func() nn.Layer {
		return nn.NewTransformerPredictor(scfg, rand.New(rand.NewSource(13)))
	}, out, online.StudentClass)
	if err != nil {
		return err
	}
	sm, err := sStore.Publish(student, nn.CheckpointMeta{Loss: 1 - f1})
	if err != nil {
		return err
	}

	// Tabularize the serve student and publish the hierarchy as the dart
	// class too, so the daemon recovers a full teach→distill→tabularize
	// pipeline and can serve tables before its first online duty cycle. The
	// kernel config matches dart-serve's serving default; Source records the
	// student version the table derives from, so the daemon's tabularizer
	// knows not to rebuild an unchanged table on startup.
	fit := art.Train.X
	if fit.N > 512 {
		fit = fit.Gather(rand.New(rand.NewSource(5)).Perm(fit.N)[:512])
	}
	tables := tabular.Tabularize(student, fit, tabCfg)
	f1Tables := core.EvaluateTableF1(tables.Hierarchy, art.Test)
	cost := tables.Hierarchy.Cost()
	fmt.Printf("%-22s %8.3f   (latency %d cycles, %.1f KB)\n",
		"Serve DART (tables)", f1Tables, cost.LatencyCycles, float64(cost.StorageBytes())/1024)
	dStore, err := online.NewTableStore(out, online.DartClass)
	if err != nil {
		return err
	}
	dm, err := dStore.Publish(tables.Hierarchy, nn.CheckpointMeta{
		Source:   sm.Version,
		Examples: uint64(fit.N),
		Loss:     1 - f1Tables,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\npublished teacher v%d, student v%d, and dart table v%d to %s\n",
		tm.Version, sm.Version, dm.Version, out)
	fmt.Printf("serve them with: dart-serve -pretrain -dart -checkpoint-dir %s\n", out)
	return nil
}
