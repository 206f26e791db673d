// A drain completes only its own thread's flushes. Thread 0's flushopt
// of x is still pending when thread 1, having seen x = 1 through the
// done flag, runs sfence and persists y. That sfence does not complete
// thread 0's flush, so the post-crash reads may see y = 1 with x = 0.
phase {
  thread 0 {
    x = 1;
    flushopt x;
    done = 1;
  }
  thread 1 {
    while (load(done) == 0) {
    }
    sfence;
    y = 1;
    flush y;
  }
}
phase {
  thread 0 {
    let r1 = load(y);
    let r2 = load(x);
  }
}
