#include "pdnspot/platform.hh"

#include "common/logging.hh"

namespace pdnspot
{

Platform::Platform(PlatformConfig config,
                   const ParallelRunner &runner)
    : _config(config),
      _opm(),
      _perf(_opm),
      _solver(_opm),
      _costs(_opm)
{
    for (size_t i = 0; i < allPdnKinds.size(); ++i)
        _pdns[i] = makePdn(allPdnKinds[i], config.pdnParams);

    _flexwatts = dynamic_cast<const FlexWattsPdn *>(
        &pdn(PdnKind::FlexWatts));
    if (!_flexwatts)
        panic("Platform: FlexWatts factory returned the wrong type");

    _eteeTable = std::make_unique<EteeTable>(*_flexwatts, _opm, runner);
    _predictor = std::make_unique<ModePredictor>(
        *_eteeTable, config.predictorHysteresis);
}

const PdnModel &
Platform::pdn(PdnKind kind) const
{
    for (size_t i = 0; i < allPdnKinds.size(); ++i) {
        if (allPdnKinds[i] == kind)
            return *_pdns[i];
    }
    panic("Platform: unknown PdnKind");
}

} // namespace pdnspot
