// Package leveldbpp is a pure-Go reproduction of "A Comparative Study of
// Secondary Indexing Techniques in LSM-based NoSQL Databases" (Qader,
// Cheng, Hristidis — SIGMOD 2018): the LevelDB++ system, its five
// secondary indexing techniques, the Twitter-style workload generator,
// and a benchmark harness regenerating every table and figure of the
// paper's evaluation.
//
// See README.md for a quickstart, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results. The library lives under
// internal/core, with its checked examples in internal/core/example_test.go.
package leveldbpp
