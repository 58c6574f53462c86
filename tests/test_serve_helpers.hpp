// serve() helpers for the serving tests: one request builder per request
// kind, so a test reads like the query it makes, and the one way an
// in-memory family is served -- compressed at the lossless f64 tier, saved,
// opened and hosted like any artifact.
#pragma once

#include <atomic>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "rom/family_codec.hpp"
#include "rom/io.hpp"
#include "rom/serve_engine.hpp"

namespace atmor::test {

/// A build-spec ref: how a test names a model its spec resolver builds.
inline rom::ModelRef spec_ref(std::string recipe, std::vector<double> params = {}) {
    return rom::ModelRef::from_spec(rom::BuildSpec{std::move(recipe), std::move(params)});
}

inline rom::ServeResponse sweep(rom::ServeEngine& engine, rom::ModelRef model,
                                std::vector<la::Complex> grid) {
    rom::ServeRequest req;
    req.body = rom::FrequencySweepRequest{std::move(model), std::move(grid)};
    return engine.serve(req);
}

inline rom::ServeResponse transients(rom::ServeEngine& engine, rom::ModelRef model,
                                     std::vector<ode::InputFn> inputs,
                                     const rom::TransientSpec& options) {
    rom::TransientBatchRequest body;
    body.model = std::move(model);
    body.raw_inputs = std::move(inputs);
    body.options = options;
    rom::ServeRequest req;
    req.body = std::move(body);
    return engine.serve(req);
}

inline rom::ServeResponse certificate(rom::ServeEngine& engine, rom::ModelRef model) {
    rom::ServeRequest req;
    req.body = rom::CertificateRequest{std::move(model)};
    return engine.serve(req);
}

inline rom::ServeResponse parametric(rom::ServeEngine& engine, std::string family_id,
                                     pmor::Point coords, std::vector<la::Complex> grid,
                                     double tol = 0.0) {
    rom::ParametricQueryRequest body;
    body.family_id = std::move(family_id);
    body.coords = std::move(coords);
    body.grid = std::move(grid);
    body.tol = tol;
    rom::ServeRequest req;
    req.body = std::move(body);
    return engine.serve(req);
}

inline rom::ServeResponse parametric_batch(rom::ServeEngine& engine, std::string family_id,
                                           std::vector<pmor::Point> coords,
                                           std::vector<la::Complex> grid) {
    rom::ParametricBatchRequest body;
    body.family_id = std::move(family_id);
    body.coords = std::move(coords);
    body.grid = std::move(grid);
    rom::ServeRequest req;
    req.body = std::move(body);
    return engine.serve(req);
}

/// Compress `family` at the lossless f64 tier, save it, open it and host
/// the artifact under `defaults`. The file is unlinked once mapped (the
/// mapping outlives its name). Returns the hosted artifact.
inline rom::FamilyArtifact host(rom::ServeEngine& engine, const rom::Family& family,
                                rom::ParametricOptions defaults = {}) {
    static std::atomic<int> counter{0};
    const std::string path = (std::filesystem::temp_directory_path() /
                              ("atmor_hosted_" + std::to_string(::getpid()) + "_" +
                               std::to_string(counter++) + rom::kFamilyExtension))
                                 .string();
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::f64;
    rom::save_family_artifact(rom::compress_family(family, copt), path);
    rom::FamilyArtifact artifact = rom::FamilyArtifact::open(path);
    std::filesystem::remove(path);
    engine.host_family(artifact, std::move(defaults));
    return artifact;
}

}  // namespace atmor::test
