package gvn

// ClassesForTest exposes the congruence partitioner to the external
// tests: the regression test that compares it against the retired
// byte-string keying implementation, and direct partition checks.
var ClassesForTest = classes
