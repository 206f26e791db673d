package explore

// WithFreshWorlds returns opt set to build a new World for every
// execution instead of resetting a per-worker one: the reference path
// the world-reuse tests compare against.
func WithFreshWorlds(opt Options) Options {
	opt.freshWorlds = true
	return opt
}

// WithoutSnapshots returns opt with crash-boundary snapshots off: every
// execution replays from the program start.
func WithoutSnapshots(opt Options) Options {
	opt.noSnapshots = true
	return opt
}

// WithoutStateCache returns opt with the post-crash state cache off.
func WithoutStateCache(opt Options) Options {
	opt.noStateCache = true
	return opt
}
