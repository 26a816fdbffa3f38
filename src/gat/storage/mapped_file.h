#ifndef GAT_STORAGE_MAPPED_FILE_H_
#define GAT_STORAGE_MAPPED_FILE_H_

#include <cstddef>
#include <string>

namespace gat {

/// A read-only memory mapping of one file — the zero-copy substrate of
/// the storage subsystem. Move-only RAII: the mapping lives exactly as
/// long as the object, so anything handing out views into it must own
/// it: a mapped `GatIndex` owns its file through its `MappedDiskTier`.
///
/// `Open` maps the whole file `PROT_READ`/`MAP_PRIVATE`; read-only file
/// permissions are sufficient (serving never writes). An existing empty
/// file maps as valid with `size() == 0` and `data() == nullptr`
/// (POSIX rejects zero-length mappings); directories, missing and
/// unreadable files fail. No exceptions — `Open` returns false and the
/// object stays invalid.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path`. Replaces any previous mapping. Returns false (and
  /// invalidates the object) on open/stat/mmap failure.
  bool Open(const std::string& path);

  bool valid() const { return valid_; }
  const char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  void Close();

  const char* data_ = nullptr;
  size_t size_ = 0;
  bool valid_ = false;
};

}  // namespace gat

#endif  // GAT_STORAGE_MAPPED_FILE_H_
