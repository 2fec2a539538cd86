/// \file tpch_gen.cc
/// Command-line TPC-H generator: `tpch_gen --sf 0.1` builds the three
/// tables at the requested scale factor from one deterministic seed and
/// prints their shapes; `--encode` additionally compresses every column
/// (dictionary / bit-pack per block, DESIGN.md Section 10) and reports
/// the size reduction. `--seed` changes the seed. Out-of-range scale
/// factors are rejected through the generator's Status path.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/table_printer.h"
#include "storage/encoding.h"
#include "tpch/tpch_gen.h"

using namespace nipo;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sf <scale>] [--seed <n>] [--encode]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  TpchConfig config;
  bool encode = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--sf") == 0 && i + 1 < argc) {
      config.scale_factor = std::atof(argv[++i]);
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      config.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(arg, "--encode") == 0) {
      encode = true;
    } else {
      return Usage(argv[0]);
    }
  }

  auto db = GenerateTpch(config);
  if (!db.ok()) {
    std::fprintf(stderr, "tpch_gen: %s\n",
                 db.status().message().c_str());
    return 1;
  }

  TablePrinter out("TPC-H sf=" + FormatDouble(config.scale_factor, 3) +
                   " seed=" + std::to_string(config.seed));
  out.SetHeader({"table", "rows", "columns", "plain KiB", "encoded KiB",
                 "ratio"});
  Table* tables[] = {db.ValueOrDie().lineitem.get(),
                     db.ValueOrDie().orders.get(),
                     db.ValueOrDie().part.get()};
  for (Table* table : tables) {
    std::string plain_kib = "-", encoded_kib = "-", ratio = "-";
    if (encode) {
      auto stats = EncodeTableColumns(table);
      NIPO_CHECK(stats.ok());
      const TableEncodingStats& s = stats.ValueOrDie();
      plain_kib = FormatDouble(static_cast<double>(s.plain_bytes) / 1024, 1);
      encoded_kib =
          FormatDouble(static_cast<double>(s.encoded_bytes) / 1024, 1);
      ratio = FormatDouble(static_cast<double>(s.plain_bytes) /
                               static_cast<double>(s.encoded_bytes),
                           2) +
              "x";
    }
    out.AddRow({table->name(), std::to_string(table->num_rows()),
                std::to_string(table->num_columns()), plain_kib, encoded_kib,
                ratio});
  }
  out.Print(std::cout);
  return 0;
}
