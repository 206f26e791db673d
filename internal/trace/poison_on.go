//go:build psanpoison

package trace

// poisonChecks turns on the released-slot checks: built with the
// psanpoison tag, every read path that meets a record whose arena slot
// sits on the free list panics instead of reading its zeroed fields.
const poisonChecks = true
