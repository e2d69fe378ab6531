module topk/benchmark

go 1.24

require topk v0.0.0

replace topk => ../
