// Persistence for the offline lattice (Phase 0 is a one-time cost the paper
// computes offline; a deployment saves the artifact and loads it at server
// start instead of regenerating).
//
// Format: a line-oriented text format ("KWSDBGLAT 1" header, the generation
// config, then one line per node: level, vertices as rel:copy pairs, edges
// as a,b,schema_edge triples). Parent/child links, the canonical-label map
// and the copy-set index are rebuilt on load, and every tree is validated
// against the schema graph, so a corrupted or mismatched file fails loudly
// instead of producing a subtly wrong lattice.
#ifndef KWSDBG_LATTICE_LATTICE_IO_H_
#define KWSDBG_LATTICE_LATTICE_IO_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "common/status.h"
#include "lattice/lattice.h"

namespace kwsdbg {

/// Serializes `lattice` to `out`.
Status SaveLattice(const Lattice& lattice, std::ostream* out);

/// Convenience: save to a file path.
Status SaveLatticeFile(const Lattice& lattice, const std::string& path);

/// Deserializes a lattice previously written by SaveLattice. `schema` must
/// be the same schema graph the lattice was generated from (relation and
/// edge ids are validated against it). Level generation timings are not
/// persisted (they describe the original generation run); node/duplicate
/// counts are.
StatusOr<std::unique_ptr<Lattice>> LoadLattice(const SchemaGraph& schema,
                                               std::istream* in);

/// Convenience: load from a file path.
StatusOr<std::unique_ptr<Lattice>> LoadLatticeFile(const SchemaGraph& schema,
                                                   const std::string& path);

}  // namespace kwsdbg

#endif  // KWSDBG_LATTICE_LATTICE_IO_H_
