#include "common/snapshot_io.hpp"

#include <fstream>
#include <string>

namespace bwpart::snap {

std::vector<std::uint8_t> read_file(const std::string& path,
                                    const char* what) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) {
    throw SnapshotError(std::string("cannot open ") + what +
                        " file for reading");
  }
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (in.gcount() != size ||
      in.peek() != std::ifstream::traits_type::eof()) {
    throw SnapshotError(std::string("read from ") + what + " file failed (" +
                        std::to_string(in.gcount()) + " bytes read, " +
                        std::to_string(size) +
                        " expected; short read or a file that changed "
                        "while being read)");
  }
  return bytes;
}

}  // namespace bwpart::snap
