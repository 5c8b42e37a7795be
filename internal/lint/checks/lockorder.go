package checks

// RepoLockOrder is the engine's declared mutex acquisition order,
// outermost first. A goroutine may acquire a class further down the table
// while holding one further up, never the reverse. The table encodes the
// layering of the dataflow: server session state wraps engine registry
// state, which wraps per-stream and per-class state, with egress sinks,
// the arrangement a SteM stores into and scrape-time metric state
// innermost. (A class's worker pipeline, eddy.ParallelEddy, has no lock of
// its own: the class calls it under sharedClass.mu.) lockcheck verifies every
// function (and every helper reachable through same-package calls) against
// it.
var RepoLockOrder = []LockClass{
	// Server layer: per-connection session state. The proxy's upstream
	// gate wraps its ownership map (redial holds upMu while snapshotting
	// owners under mu).
	{modulePath + "/internal/server", "Proxy", "upMu"},
	{modulePath + "/internal/server", "Proxy", "mu"},
	{modulePath + "/internal/server", "frontEnd", "mu"},
	{modulePath + "/internal/server", "frontEnd", "wmu"},
	{modulePath + "/internal/server", "proxyClient", "wmu"},

	// Engine registry: the engine map lock, then per-stream state, then
	// shared-class state. Creating a class and retiring one (its last member
	// out, or Engine.Stop) hold Engine.mu across the class's own lock and its
	// streams' subscriber maps, so a class key has one live class at a time.
	{modulePath + "/internal/core", "Engine", "mu"},
	{modulePath + "/internal/core", "streamState", "mu"},
	{modulePath + "/internal/core", "sharedClass", "mu"},

	// Per-query result sinks.
	{modulePath + "/internal/core", "RunningQuery", "sinkMu"},

	// Flux routing state and its consumers.
	{modulePath + "/internal/flux", "Flux", "mu"},
	{modulePath + "/internal/flux", "JoinHalf", "mu"},
	{modulePath + "/internal/flux", "Ledger", "mu"},

	// Egress sinks.
	{modulePath + "/internal/egress", "PushEgress", "mu"},
	{modulePath + "/internal/egress", "PullEgress", "mu"},
	{modulePath + "/internal/egress", "PriorityEgress", "mu"},

	// The one row store behind every SteM: taken under sharedClass.mu by
	// the class eddy that steps the SteM, and under Engine.mu and
	// sharedClass.mu by the engine's walk of its live classes
	// (the tcq_arrangement_* gauges, tcq.arrange). A leaf — a callback
	// running under it merges rows and may enter tuple.Pool, nothing in
	// this table.
	{modulePath + "/internal/arrange", "Arrangement", "mu"},

	// Innermost leaves: metric registry/tracer and the fjord queues. Code
	// holding any of these must not call back up into the engine.
	{modulePath + "/internal/metrics", "Registry", "mu"},
	{modulePath + "/internal/metrics", "Tracer", "mu"},
	{modulePath + "/internal/fjord", "Queue", "mu"},
}
