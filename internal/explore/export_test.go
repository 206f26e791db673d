package explore

// WithFreshWorlds returns opt set to build a new World for every
// execution instead of resetting a per-worker one: the reference path
// the world-reuse tests compare against.
func WithFreshWorlds(opt Options) Options {
	opt.freshWorlds = true
	return opt
}
