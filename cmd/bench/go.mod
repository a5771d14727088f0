module realtracer/cmd/bench

go 1.24

require realtracer v0.0.0

replace realtracer => ../..
