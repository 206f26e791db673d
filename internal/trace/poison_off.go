//go:build !psanpoison

package trace

// poisonChecks is off in normal builds: the released-slot checks
// compile to nothing. Build with -tags psanpoison to turn them on.
const poisonChecks = false
