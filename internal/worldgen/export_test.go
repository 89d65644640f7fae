package worldgen

// OptionalPartsBuilt reports whether w's TLS deployments and commercial
// geolocation databases have been built yet, without building them.
func OptionalPartsBuilt(w *World) (tls, altDBs bool) {
	return w.tls.v != nil, w.altDBs.v != nil
}
