#ifndef GAT_MODEL_BINARY_IO_H_
#define GAT_MODEL_BINARY_IO_H_

#include <istream>
#include <ostream>

namespace gat {

/// Raw little-endian POD stream helpers shared by the binary formats —
/// the dataset cache (model/serialization) and the index snapshot
/// writer (index/snapshot; its parser reads a byte span instead).
/// Values are written in host byte order; both formats are
/// machine-local caches, not interchange formats.

template <typename T>
inline void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
inline bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

}  // namespace gat

#endif  // GAT_MODEL_BINARY_IO_H_
