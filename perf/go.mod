// The benchmark is a module of its own so that it can be dropped, unchanged,
// into any checkout of the repository. The mmprofile/ prefix is what lets it
// import mmprofile/internal/...; the replace points at the checkout it sits in.
module mmprofile/perf

go 1.22

require mmprofile v0.0.0

replace mmprofile => ../
