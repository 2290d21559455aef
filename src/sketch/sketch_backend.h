#ifndef CYCLESTREAM_SKETCH_SKETCH_BACKEND_H_
#define CYCLESTREAM_SKETCH_SKETCH_BACKEND_H_

// Intentionally empty: cyclebench/harness.cc still includes this header.

#endif  // CYCLESTREAM_SKETCH_SKETCH_BACKEND_H_
