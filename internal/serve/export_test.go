package serve

// Helpers shared with the external serve_test package, whose tests drive the
// engine through internal/loadgen: an import the in-package tests cannot
// make, since loadgen imports serve.
var (
	SmallSimCfg      = smallSimCfg
	SessionTrace     = sessionTrace
	OnlineTestData   = onlineTestData
	BuildHierarchy   = testHierarchy
	BuildDartLearner = testDartLearner
)

// wireJob is the pooled hot-frame job under the name the codec's
// zero-allocation tests know it by.
type wireJob = WireJob
