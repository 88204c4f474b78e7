// Text format for world configurations, so custom worlds can be defined
// without recompiling (used by the CLI's `generate --world file`).
//
// Line-oriented; '#' starts a comment. Each line is
// `kind,arg1,arg2,...` with kind-specific comma-separated fields;
// key=value pairs may appear in any order after the positional fields.
//
//   config,months=43,start_month=2,seed=20190411
//   hospitals,count=36,small=0.6,medium=0.3,large=0.1
//   patients,count=2000,visit=0.35,boost=0.4,acute=2.0
//   city,port-city,weight=3.0
//   disease,influenza,weight=1.6,amplitude=1.2,peak=0,sharpness=3,
//           chronic=0.0,intensity=1.0,outlier=22:2.6,prevalence=20:0.4:10
//   medicine,antiviral,propensity=1.0,release=0,
//            indication=influenza:1.0:0:0,propensity_event=14:0.45:6,
//            generic_of=original,city_delay=north-city:12
//   bias,small,antibiotic,cold-syndrome,weight=0.8
//
// Repeated keys (indication=, outlier=, ...) accumulate.

#ifndef MICTREND_SYNTH_WORLD_IO_H_
#define MICTREND_SYNTH_WORLD_IO_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "synth/world.h"

namespace mic::synth {

/// Parses a world configuration from the text format above.
Result<WorldConfig> ReadWorldConfig(std::istream& in);
Result<WorldConfig> ReadWorldConfigFile(const std::string& path);

/// Writes `config` in the same format (round-trips through
/// ReadWorldConfig).
Status WriteWorldConfig(const WorldConfig& config, std::ostream& out);

}  // namespace mic::synth

#endif  // MICTREND_SYNTH_WORLD_IO_H_
