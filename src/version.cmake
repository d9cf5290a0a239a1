# Writes the git-describe-style version that campaign manifests record.
#
# Run as a build step (cmake -P), so every build stamps the commit it
# builds, not the one of the last configure. The header is rewritten only
# when its text changes, so an unchanged tree recompiles nothing.
#
# Inputs: OUT (header path), SOURCE_DIR (where to ask git), VERSION (the
# project version) and GIT (git executable; empty when git was not found).
# Without git, or outside a checkout, the version is v<VERSION>.
set(describe "")
if(GIT)
  execute_process(
    COMMAND ${GIT} describe --always --dirty --tags
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE describe
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
endif()
if(describe STREQUAL "")
  set(version "v${VERSION}")
else()
  set(version "v${VERSION}-${describe}")
endif()
set(text "#define BURST_VERSION_STRING \"${version}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
