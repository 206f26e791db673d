package trace

// SetFullMarkCheck makes every sweep of tr compare its outcome with the
// full mark-and-sweep's (retire_ref_test.go), reporting each difference
// through fail.
func SetFullMarkCheck(tr *Trace, fail func(string)) {
	tr.refCheck = func() func() { return tr.fullMarkCheck(fail) }
}

// refs resolves handles, NoStore to nil.
func (tr *Trace) refs(rs []StoreRef) []*Store {
	out := make([]*Store, len(rs))
	for i, r := range rs {
		if r != NoStore {
			out[i] = tr.StoreAt(r)
		}
	}
	return out
}

// list returns a word list's stores, head to tail.
func (tr *Trace) list(l wordList) []*Store {
	var out []*Store
	for r := l.head; r != NoStore; r = tr.StoreAt(r).next {
		out = append(out, tr.StoreAt(r))
	}
	return out
}
