package trace

// SetFullMarkCheck makes every sweep of tr compare its outcome with the
// full mark-and-sweep's (retire_ref_test.go), reporting each difference
// through fail.
func SetFullMarkCheck(tr *Trace, fail func(string)) {
	tr.refCheck = func() func() { return tr.fullMarkCheck(fail) }
}
