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
