#include "flexwatts/etee_table.hh"

#include "common/logging.hh"

namespace pdnspot
{

namespace
{

/** Characterization grid (the paper's Fig. 4 axes). */
const std::vector<double> gridTdpsW = {4.0,  8.0,  10.0, 18.0,
                                       25.0, 36.0, 50.0};
const std::vector<double> gridArs = {0.30, 0.40, 0.50, 0.60,
                                     0.70, 0.80, 0.90};

} // namespace

size_t
EteeTable::modeIndex(HybridMode m)
{
    return static_cast<size_t>(m);
}

EteeTable::EteeTable(const FlexWattsPdn &pdn,
                     const OperatingPointModel &opm,
                     const ParallelRunner &runner)
{
    // Active-state (C0) curves: one (TDP x AR) grid per mode and
    // workload type. Cells are independent, so each grid is sampled
    // in parallel with every cell stored at its own index.
    static constexpr std::array<WorkloadType, 3> activeTypes = {
        WorkloadType::SingleThread, WorkloadType::MultiThread,
        WorkloadType::Graphics,
    };
    size_t na = gridArs.size();
    for (HybridMode mode : allHybridModes) {
        for (WorkloadType type : activeTypes) {
            std::vector<double> values = runner.map<double>(
                gridTdpsW.size() * na, [&](size_t cell) {
                    OperatingPointModel::Query q;
                    q.tdp = watts(gridTdpsW[cell / na]);
                    q.type = type;
                    q.ar = gridArs[cell % na];
                    return pdn.evaluate(opm.build(q), mode).etee();
                });
            _active.emplace(
                std::make_pair(modeIndex(mode), type),
                BilinearGrid(gridTdpsW, gridArs,
                             std::move(values)));
        }
        // The battery-life type reuses the multi-thread curves when
        // momentarily active (the PMU classifies by active domains).
        _active.emplace(
            std::make_pair(modeIndex(mode), WorkloadType::BatteryLife),
            _active.at(std::make_pair(modeIndex(mode),
                                      WorkloadType::MultiThread)));

        // Package C-state rows (TDP-independent, Sec. 5 Observation 3).
        for (PackageCState state : batteryLifeCStates) {
            OperatingPointModel::Query q;
            q.tdp = watts(15.0);
            q.cstate = state;
            _cstates.emplace(std::make_pair(modeIndex(mode), state),
                             pdn.evaluate(opm.build(q), mode).etee());
        }
    }
}

double
EteeTable::lookupActive(HybridMode mode, WorkloadType type, Power tdp,
                        double ar) const
{
    auto it = _active.find(std::make_pair(modeIndex(mode), type));
    if (it == _active.end())
        panic("EteeTable: missing active curve");
    return it->second.at(inWatts(tdp), ar);
}

double
EteeTable::lookupCState(HybridMode mode, PackageCState state) const
{
    if (state == PackageCState::C0)
        panic("EteeTable: C0 has no C-state row; use lookupActive");
    auto it = _cstates.find(std::make_pair(modeIndex(mode), state));
    if (it == _cstates.end())
        panic("EteeTable: missing C-state row");
    return it->second;
}

} // namespace pdnspot
