package fp32

// FmaFallsBack exposes the fallback census predicate to the external
// tests, which may import the packages built on fp32.
var FmaFallsBack = fmaFallsBack
