// On-chip power-delivery mesh (the large-sparse scenario family): a rows x
// cols grid of pitch resistors with a grounded decap and a distributed load
// conductance per node, exponential ESD clamp diodes at hotspot nodes, and a
// corner via injecting the supply-noise current. The observed output is the
// IR-drop voltage at the corner farthest from the injection.
//
// The interesting regime is n = rows * cols >= 5000: the nodal conductance
// matrix is a 5-point-stencil Laplacian, so the lifted QLDAE stresses
// exactly the sparse-first machinery -- sparse::SparseLu for the shifted
// resolvents, under the approximate-minimum-degree order that
// sparse::fill_reducing_order picks for a 2-D mesh, and the Schur backend
// for the bordered lifted blocks -- while the clamp diodes keep the family
// genuinely nonlinear (grounded exponential elements, same lifting as the
// NLTL ladder).
#pragma once

#include <string>

#include "circuits/exp_system.hpp"

namespace atmor::circuits {

struct PowerGridOptions {
    int rows = 16;                   ///< mesh rows (nodes = rows * cols)
    int cols = 16;                   ///< mesh columns
    double pitch_resistance = 0.5;   ///< resistor between 4-neighbor nodes
    double decap = 1.0;              ///< grounded decoupling capacitance per node
    double load_conductance = 0.05;  ///< distributed load to ground per node
    int clamps = 4;                  ///< ESD clamp diodes along the mesh diagonal
    double clamp_alpha = 8.0;        ///< clamp i = Is (e^{alpha v} - 1)
    double clamp_is = 1e-3;

    /// Stable parameter key (every field, declaration order): the circuit
    /// half of a rom::Registry key.
    [[nodiscard]] std::string key() const;
};

/// Grid node count (the unlifted state count; lifting adds one state per
/// clamp diode).
int power_grid_nodes(const PowerGridOptions& opt);

/// Build the mesh. Input: noise current into node (0, 0). Output: voltage
/// deviation at node (rows-1, cols-1), the far corner.
ExpNodalSystem power_grid(const PowerGridOptions& opt);

}  // namespace atmor::circuits
