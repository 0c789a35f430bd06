package main

// Committed digests. A change that leaves the simulators' behaviour alone
// leaves these alone; one that moves a single simulated statistic, answer
// or experiment table changes them, and the benchmark reports that run as
// incorrect until they are deliberately updated.

// kernelDigestDefaultSeed covers every run's simulated statistics and
// engine counters on the kernel list drawn at defaultSeed.
const kernelDigestDefaultSeed = "a873482720a003d8b11311116f1bbd034c278afdb861b9da46cdcd36c179e257"

// sweepTablesDigest covers every experiment table and finding in full
// mode except E11's (see tablesDigest).
const sweepTablesDigest = "a6366b81e84378f261b0254c644e66a5dc42ac6874557cf1eb4e5087646da11f"
