// Package core assembles the full DART pipeline of the paper (Fig. 2 and
// Sec. VI): data preparation, attention-based teacher training, table
// configuration under prefetcher design constraints, complexity reduction
// via multi-label knowledge distillation, and layer-wise tabularization with
// fine-tuning. The resulting artifact is a hierarchy of tables that drops
// into the simulator as an LLC prefetcher.
package core

import (
	"fmt"
	"math/rand"

	"dart/internal/config"
	"dart/internal/dataprep"
	"dart/internal/kd"
	"dart/internal/metrics"
	"dart/internal/nn"
	"dart/internal/prefetch"
	"dart/internal/tabular"
	"dart/internal/trace"
)

// Options controls the pipeline. Zero values select small, fast settings
// suitable for tests and examples; raise the epochs and teacher size to
// approach the paper's training regime.
type Options struct {
	Data        dataprep.Config    // preprocessing (Sec. VI-A)
	Constraints config.Constraints // prefetcher design constraints (τ, s)

	// Teacher structure (Step 1 pursues accuracy without constraints).
	TeacherDModel, TeacherDFF, TeacherHeads, TeacherLayers int
	TeacherEpochs                                          int

	// Distillation (Step 2).
	KD kd.Config

	// Tabularization (Step 3).
	FineTune       bool
	FineTuneEpochs int
	Encoder        tabular.EncoderKind
	FitSamples     int // PQ-fitting sample cap (tabularization cost control)

	// Also train an undistilled student for the Table VI comparison.
	TrainStudentNoKD bool

	Seed int64
}

// The teacher's Adam learning rate, and the share of the labelled samples
// the pipeline trains on (the rest is the test split).
const (
	teacherLR = 2e-3
	trainFrac = 0.75
)

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Data.History == 0 {
		o.Data = dataprep.Default()
	}
	if o.Constraints.LatencyCycles == 0 {
		o.Constraints = config.Constraints{LatencyCycles: 100, StorageBytes: 1 << 20}
	}
	if o.KD == (kd.Config{}) {
		o.KD = kd.DefaultConfig()
	}
	if o.TeacherDModel == 0 {
		o.TeacherDModel = 64
	}
	if o.TeacherDFF == 0 {
		o.TeacherDFF = 128
	}
	if o.TeacherHeads == 0 {
		o.TeacherHeads = 4
	}
	if o.TeacherLayers == 0 {
		o.TeacherLayers = 2
	}
	if o.TeacherEpochs == 0 {
		o.TeacherEpochs = 10
	}
	if o.FineTuneEpochs == 0 {
		o.FineTuneEpochs = 8
	}
	if o.FitSamples == 0 {
		o.FitSamples = 512
	}
	return o
}

// Artifacts is everything the pipeline produces.
type Artifacts struct {
	Opt    Options
	Chosen config.Candidate // configurator output (Table VIII row)

	Train, Test *dataprep.Dataset

	Teacher     *nn.Sequential
	Student     *nn.Sequential
	StudentNoKD *nn.Sequential // nil unless requested
	Tables      *tabular.Result

	F1Teacher     float64
	F1Student     float64
	F1StudentNoKD float64
	F1DART        float64
}

// BuildDART runs the full pipeline on an LLC access trace.
func BuildDART(recs []trace.Record, opt Options) (*Artifacts, error) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))

	// Preprocessing.
	ds, err := dataprep.Build(recs, opt.Data)
	if err != nil {
		return nil, err
	}
	train, test := ds.Split(trainFrac)
	art := &Artifacts{Opt: opt, Train: train, Test: test}

	// Step 0: table configurator chooses the student/table structure.
	space := config.DefaultSpace(opt.Data.History, opt.Data.InputDim(), opt.Data.OutputDim())
	chosen, err := config.Configure(opt.Constraints, space)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	art.Chosen = chosen

	// Step 1: teacher training (unconstrained, accuracy-first).
	teacherCfg := nn.TransformerConfig{
		T: opt.Data.History, DIn: opt.Data.InputDim(),
		DModel: opt.TeacherDModel, DFF: opt.TeacherDFF,
		DOut: opt.Data.OutputDim(), Heads: opt.TeacherHeads, Layers: opt.TeacherLayers,
	}
	art.Teacher = nn.NewTransformerPredictor(teacherCfg, rng)
	tr := nn.NewTrainer(art.Teacher, nn.NewAdam(teacherLR), 32, rng)
	for e := 0; e < opt.TeacherEpochs; e++ {
		tr.TrainEpoch(train.X, train.Y, nn.BCEWithLogits)
	}

	// Step 2: knowledge distillation into the configured student.
	studentCfg := chosen.Model.Transformer()
	art.Student = nn.NewTransformerPredictor(studentCfg, rng)
	distiller := kd.NewDistiller(art.Teacher, art.Student, opt.KD, rng)
	distiller.Run(train.X, train.Y)

	if opt.TrainStudentNoKD {
		art.StudentNoKD = nn.NewTransformerPredictor(studentCfg, rand.New(rand.NewSource(opt.Seed+1)))
		lr := opt.KD.LR
		if lr == 0 {
			lr = 1e-3
		}
		trNoKD := nn.NewTrainer(art.StudentNoKD, nn.NewAdam(lr), 32, rng)
		epochs := opt.KD.Epochs
		if epochs == 0 {
			epochs = 10
		}
		for e := 0; e < epochs; e++ {
			trNoKD.TrainEpoch(train.X, train.Y, nn.BCEWithLogits)
		}
	}

	// Step 3: layer-wise tabularization with fine-tuning.
	fit := train.X
	if fit.N > opt.FitSamples {
		idx := rng.Perm(fit.N)[:opt.FitSamples]
		fit = fit.Gather(idx)
	}
	art.Tables = tabular.Tabularize(art.Student, fit, tabular.Config{
		Kernel: tabular.KernelConfig{
			K: chosen.Table.K, C: chosen.Table.C,
			Kind: opt.Encoder, DataBits: chosen.Table.DataBits,
		},
		FineTune:       opt.FineTune,
		FineTuneEpochs: opt.FineTuneEpochs,
		Seed:           opt.Seed,
	})

	// Evaluation.
	art.F1Teacher = EvaluateModelF1(art.Teacher, test)
	art.F1Student = EvaluateModelF1(art.Student, test)
	if art.StudentNoKD != nil {
		art.F1StudentNoKD = EvaluateModelF1(art.StudentNoKD, test)
	}
	art.F1DART = EvaluateTableF1(art.Tables.Hierarchy, test)
	return art, nil
}

// EvaluateModelF1 computes micro-F1 of a neural model on a dataset.
func EvaluateModelF1(m nn.Layer, ds *dataprep.Dataset) float64 {
	logits := m.Forward(ds.X)
	return metrics.F1FromLogits(logits.Data, ds.Y.Data)
}

// EvaluateTableF1 computes micro-F1 of a table hierarchy on a dataset.
func EvaluateTableF1(h *tabular.Hierarchy, ds *dataprep.Dataset) float64 {
	out := h.Forward(ds.X)
	return metrics.F1FromLogits(out.Data, ds.Y.Data)
}

// Prefetcher wraps the tabularized predictor as an LLC prefetcher whose
// latency and storage come from the configurator's analytic model.
func (a *Artifacts) Prefetcher(name string, degree int) *prefetch.NNPrefetcher {
	return prefetch.NewNNPrefetcher(name,
		prefetch.TableModel{H: a.Tables.Hierarchy},
		a.Opt.Data, a.Chosen.Latency, a.Chosen.StorageBytes, degree)
}

// StudentPrefetcher wraps the (pre-tabularization) student network as a
// TransFetch-class NN prefetcher with the systolic-array latency model.
func (a *Artifacts) StudentPrefetcher(name string, degree int, ideal bool) *prefetch.NNPrefetcher {
	lat := config.NNLatency(a.Chosen.Model)
	if ideal {
		lat = 0
	}
	storage := config.NNStorageBits(a.Chosen.Model, 32) / 8
	return prefetch.NewNNPrefetcher(name,
		prefetch.NNModel{Model: a.Student},
		a.Opt.Data, lat, storage, degree)
}
