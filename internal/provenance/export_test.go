package provenance

// DecodeOracle exposes the replaced decoder to the external benchmarks.
var DecodeOracle = decodeOracle
