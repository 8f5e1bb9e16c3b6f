// Regenerate the committed golden wire fixtures (tests/fixtures/wire/).
//
// Usage: wire_fixture_gen <output-dir>
//
// Run manually ONLY after a deliberate codec change, alongside a
// kCodecVersion bump — the committed v<N>-*.bin files are the wire-compat
// contract; regenerating them without a version bump rewrites history for
// frames already persisted by older builds.  The unversioned *.xml goldens
// pin the XML renderer's bytes; a diff in them is a wire-format change.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "net/codec.h"
#include "wire_fixtures.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  namespace fs = std::filesystem;
  namespace codec = vmp::net::codec;
  const fs::path dir = argv[1];
  std::error_code ec;
  fs::create_directories(dir, ec);

  // Appended, not "v" + to_string(...): GCC 12 flags that at -O3
  // (-Wrestrict).
  std::string prefix = "v";
  prefix += std::to_string(static_cast<int>(codec::kCodecVersion));
  prefix += "-";
  const auto write = [&](const std::string& name, const std::string& bytes) {
    const fs::path path = dir / name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
      std::fprintf(stderr, "write failed: %s\n", path.c_str());
      std::exit(1);
    }
    std::printf("%s  (%zu bytes)\n", path.c_str(), bytes.size());
  };

  write(prefix + "message.bin",
        codec::encode_message(vmp::testing::wire_fixture_message()));
  write(prefix + "descriptor.bin",
        codec::encode_descriptor(vmp::testing::wire_fixture_descriptor()));
  write(prefix + "classad.bin",
        codec::encode_classad(vmp::testing::wire_fixture_classad()));
  write("message.xml", vmp::testing::wire_fixture_message().serialize());
  write("descriptor.xml", vmp::warehouse::render_descriptor(
                              vmp::testing::wire_fixture_descriptor()));
  return 0;
}
